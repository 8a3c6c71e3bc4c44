package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"sfcacd/internal/experiments"
	"sfcacd/internal/obs"
	"sfcacd/internal/resultcache"
)

// maxBatchCells bounds one batch's expansion; a sweep larger than
// this must be split by the client.
const maxBatchCells = 1024

// maxBatchWorkers bounds a batch's cell-level parallelism. Local
// cells still pass the admission queue, so this caps outstanding
// peer-forwarded cells, not compute.
const maxBatchWorkers = 32

// BatchRequest is the body of POST /v1/batch: a parameter sweep to
// fan out as independent cells. The cell space is the cross product
// of Experiments and every combination of Sweep values, each merged
// over Preset + Params exactly as a single POST /v1/experiments/{name}
// body would be.
type BatchRequest struct {
	// Experiments names the registry entries to run; required.
	Experiments []string `json:"experiments"`
	// Preset selects the base configuration per cell: "scaled"
	// (default) or "paper".
	Preset string `json:"preset,omitempty"`
	// Params is a partial experiments.Params object merged over the
	// preset for every cell.
	Params json.RawMessage `json:"params,omitempty"`
	// Sweep maps Params field names to the values to sweep; the cells
	// are the cross product. Field names follow sorted order, the last
	// field varying fastest, so cell indices are deterministic.
	Sweep map[string][]json.RawMessage `json:"sweep,omitempty"`
	// Workers bounds concurrent cells; 0 means the server's worker
	// count, capped at 32.
	Workers int `json:"workers,omitempty"`
}

// CellEvent is one streamed batch completion (SSE "cell" events /
// NDJSON lines with type "cell").
type CellEvent struct {
	Type       string `json:"type"`
	Cell       int    `json:"cell"`
	Experiment string `json:"experiment"`
	// Node is the fleet member that served the cell ("" outside fleet
	// mode).
	Node string `json:"node,omitempty"`
	// Cache is the serving path: hit|miss|coalesced|peer, or "error".
	Cache  string          `json:"cache,omitempty"`
	Key    string          `json:"key,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// BatchSummary ends the stream (SSE "done" event / NDJSON line with
// type "done").
type BatchSummary struct {
	Type   string         `json:"type"`
	Cells  int            `json:"cells"`
	Errors int            `json:"errors"`
	Cache  map[string]int `json:"cache"`
}

// batchCell is one expanded, validated cell.
type batchCell struct {
	experiment string
	params     experiments.Params
}

var batchCells = obs.GetCounter("serve.batch_cells")

// expandBatch resolves a request into its ordered cell list:
// experiment-major, sweep combinations in odometer order over the
// sorted field names (last field fastest). Every cell is merged and
// validated before anything runs, so a bad sweep fails the whole
// batch with a 400 instead of a half-streamed response.
func expandBatch(req BatchRequest) ([]batchCell, error) {
	if len(req.Experiments) == 0 {
		return nil, fmt.Errorf("batch: experiments list is empty")
	}
	fields := make([]string, 0, len(req.Sweep))
	for f, vals := range req.Sweep {
		if len(vals) == 0 {
			return nil, fmt.Errorf("batch: sweep field %q has no values", f)
		}
		fields = append(fields, f)
	}
	sort.Strings(fields)

	combos := 1
	for _, f := range fields {
		combos *= len(req.Sweep[f])
	}
	if n := combos * len(req.Experiments); n > maxBatchCells {
		return nil, fmt.Errorf("batch: %d cells exceed the %d-cell bound", n, maxBatchCells)
	}

	cells := make([]batchCell, 0, combos*len(req.Experiments))
	idx := make([]int, len(fields)) // odometer over sweep values
	for _, name := range req.Experiments {
		base, err := mergeParams(name, req.Preset, req.Params)
		if err != nil {
			return nil, fmt.Errorf("batch: %v", err)
		}
		spec, _ := experiments.Lookup(name)
		for i := range idx {
			idx[i] = 0
		}
		for c := 0; c < combos; c++ {
			p := base
			if len(fields) > 0 {
				assign := make(map[string]json.RawMessage, len(fields))
				for i, f := range fields {
					assign[f] = req.Sweep[f][idx[i]]
				}
				obj, err := json.Marshal(assign)
				if err != nil {
					return nil, fmt.Errorf("batch: %v", err)
				}
				dec := json.NewDecoder(strings.NewReader(string(obj)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&p); err != nil {
					return nil, fmt.Errorf("batch: bad sweep value: %v", err)
				}
				p = spec.Resolve(p)
			}
			if err := spec.Validate(p); err != nil {
				return nil, fmt.Errorf("batch: cell %d (%s): %v", len(cells), name, err)
			}
			cells = append(cells, batchCell{experiment: name, params: p})
			for i := len(fields) - 1; i >= 0; i-- { // last field fastest
				idx[i]++
				if idx[i] < len(req.Sweep[fields[i]]) {
					break
				}
				idx[i] = 0
			}
		}
	}
	return cells, nil
}

// handleBatch answers POST /v1/batch: the expanded cells run on the
// sweep scheduler (local cells under this node's admission queue,
// remote cells forwarded to their owner replica) and each completion
// streams back immediately — SSE by default, NDJSON under
// Accept: application/x-ndjson — so a client watching a long sweep
// sees cells finish as they finish.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad batch body: %v", err)})
		return
	}
	cells, err := expandBatch(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// The middleware charged one token; a batch costs one per cell.
	if r.Header.Get(HeaderFleetForwarded) == "" && len(cells) > 1 {
		if ok, retry := s.limiter.Allow(clientID(r), len(cells)-1); !ok {
			writeRateLimited(w, retry)
			return
		}
	}
	batchCells.Add(uint64(len(cells)))

	ndjson := strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	workers := req.Workers
	if workers <= 0 {
		workers = s.workers
	}
	if workers > maxBatchWorkers {
		workers = maxBatchWorkers
	}

	// Cells run on the sweep scheduler and report completions over a
	// channel; this goroutine owns the ResponseWriter and streams them
	// in completion order. Cells never return errors (failures are
	// per-cell events), so the scheduler never aborts early — only a
	// client disconnect (r.Context()) cancels the remaining cells.
	events := make(chan CellEvent)
	go func() {
		defer close(events)
		experiments.RunCells(r.Context(), workers, len(cells), func(i int) error {
			ev := s.batchCell(r.Context(), cells[i], req.Preset)
			ev.Cell = i
			select {
			case events <- ev:
			case <-r.Context().Done():
			}
			return nil
		})
	}()

	sum := BatchSummary{Type: "done", Cells: len(cells), Cache: map[string]int{}}
	for ev := range events {
		if ev.Error != "" {
			sum.Errors++
		}
		if ev.Cache != "" {
			sum.Cache[ev.Cache]++
		}
		writeEvent(w, ndjson, "cell", ev)
		rc.Flush()
	}
	if r.Context().Err() != nil {
		return // client gone; nothing left to write
	}
	writeEvent(w, ndjson, "done", sum)
	rc.Flush()
}

// writeEvent frames one streamed object: an SSE event or an NDJSON
// line.
func writeEvent(w io.Writer, ndjson bool, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"type":"error","error":%q}`, err.Error()))
	}
	if ndjson {
		fmt.Fprintf(w, "%s\n", data)
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// batchCell serves one cell: forwarded to its owner replica in fleet
// mode (degrading to local on any forward failure), else locally
// through Do — the same admission, coalescing, caching, and peer-fill
// path a single request takes.
func (s *Server) batchCell(ctx context.Context, c batchCell, preset string) CellEvent {
	ev := CellEvent{Type: "cell", Experiment: c.experiment}
	if s.peers != nil {
		ev.Node = s.peers.Self().ID
		if owner, self := s.peers.Owner(RequestKey(c.experiment, c.params)); !self {
			if done := s.forwardCell(ctx, &ev, owner, c, preset); done {
				return ev
			}
		}
	}
	resp, err := s.Do(ctx, c.experiment, c.params)
	if err == nil {
		err = ev.fill(string(resp.Status), resp.Entry.Body)
	}
	if err != nil {
		ev.Cache, ev.Error = "error", err.Error()
	}
	return ev
}

// fill sets the event's serving path and its key, params and result
// from a success body, the entry's Envelope; local and forwarded cells
// decode it alike.
func (ev *CellEvent) fill(cache string, body []byte) error {
	var env resultcache.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("serve: decoding the cell's body: %w", err)
	}
	ev.Cache, ev.Key, ev.Params, ev.Result = cache, env.Key.String(), env.Params, env.Result
	return nil
}

// forwardCell runs a cell on its owner replica, filling ev from the
// owner's response. It reports false when the forward failed and the
// cell should run locally instead.
func (s *Server) forwardCell(ctx context.Context, ev *CellEvent, owner MemberInfo, c batchCell, preset string) bool {
	body, err := json.Marshal(c.params)
	if err != nil {
		return false
	}
	fr, err := s.peers.Forward(ctx, owner, c.experiment, preset, body)
	if err != nil {
		return false
	}
	ev.Node = owner.ID
	if fr.StatusCode != http.StatusOK {
		var eb errorBody
		if json.Unmarshal(fr.Body, &eb) == nil && eb.Error != "" {
			ev.Cache, ev.Error = "error", eb.Error
		} else {
			ev.Cache, ev.Error = "error", fmt.Sprintf("peer %s answered %d", owner.ID, fr.StatusCode)
		}
		return true
	}
	// A body that does not decode is a relay failure: compute locally.
	return ev.fill(forwardCache(fr.Cache), fr.Body) == nil
}
