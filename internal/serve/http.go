package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"sfcacd/internal/experiments"
	"sfcacd/internal/obs"
	"sfcacd/internal/resultcache"
)

// maxBodyBytes bounds a request body; parameter JSON is tiny.
const maxBodyBytes = 1 << 20

// maxTraceIDLen bounds an honored X-Trace-Id header.
const maxTraceIDLen = 64

// HeaderFleetForwarded marks a request a fleet node already routed:
// the receiver serves it locally instead of forwarding again (loop
// prevention), and the rate limiter skips it (the client was charged
// at the entry node). Clients can also set it to pin a request to the
// node they addressed.
const HeaderFleetForwarded = "X-Fleet-Forwarded"

// HeaderClientID keys per-client rate limiting; absent, the client's
// remote address stands in.
const HeaderClientID = "X-Client-Id"

// Envelope is the JSON body of a successful experiment response. Raw
// fields replay the cached bytes verbatim, so the body of a cache hit
// is byte-identical to the body of the miss that produced it; only
// the X-Cache header differs. The server encodes an entry's envelope
// once, when it admits the entry (withBody), and every response from
// the entry writes those bytes.
type Envelope struct {
	Experiment string          `json:"experiment"`
	Key        string          `json:"key"`
	Params     json.RawMessage `json:"params"`
	Result     json.RawMessage `json:"result"`
	Manifest   json.RawMessage `json:"manifest,omitempty"`
}

// errorBody is the JSON body of a failed request.
type errorBody struct {
	Error      string `json:"error"`
	QueueDepth int    `json:"queue_depth,omitempty"`
	// Timeout is the per-request compute deadline that a 504 ran into,
	// as a Go duration string.
	Timeout string `json:"timeout,omitempty"`
	// RetryAfter mirrors the Retry-After header of a 429, as a Go
	// duration string.
	RetryAfter string `json:"retry_after,omitempty"`
}

// listEntry is one experiment in the GET /v1/experiments listing.
type listEntry struct {
	Name        string             `json:"name"`
	Description string             `json:"description"`
	PaperParams experiments.Params `json:"paper_params"`
	// ScaledParams is the default configuration a POST without a body
	// runs (the paper preset scaled down defaultScaleSteps times).
	ScaledParams experiments.Params `json:"scaled_params"`
}

// defaultScaleSteps matches acdbench's default -scale: POSTed bodies
// override a preset scaled down this many steps unless ?preset=paper.
const defaultScaleSteps = 2

// NewHandler returns the daemon's HTTP API over s:
//
//	POST /v1/experiments/{name}   run (or serve from cache) one experiment
//	GET  /v1/experiments          registry listing
//	GET  /healthz                 liveness
//	GET  /readyz                  readiness (503 once draining)
//	GET  /metrics                 Prometheus text exposition
//	                              (JSON snapshot via Accept: application/json)
//	GET  /metrics.json            obs registry snapshot, always JSON
//	GET  /debug/traces            retained-trace index
//	GET  /debug/traces/{id}       one trace's span tree
//	GET  /debug/pprof/...         pprof handlers
//
// Every non-/debug/ request is traced: the response carries
// X-Trace-Id (honored from the request when present), and completed
// traces are offered to the server's tail-sampling trace store.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments/{name}", s.handleRun)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/experiments", handleList)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", handleMetrics)
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, obs.Default().Snapshot())
	})
	mux.HandleFunc("GET /debug/traces", s.handleTraceIndex)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.withTracing(s.withRateLimit(mux))
}

// withRateLimit enforces the per-client token bucket on /v1/ routes.
// Fleet-forwarded requests pass through: the originating client was
// already charged at the node it addressed, and internal traffic must
// not starve under a client's quota. Batch requests are charged one
// token here and the remaining cells in handleBatch once the cell
// count is known.
func (s *Server) withRateLimit(next http.Handler) http.Handler {
	if s.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") || r.Header.Get(HeaderFleetForwarded) != "" {
			next.ServeHTTP(w, r)
			return
		}
		if ok, retry := s.limiter.Allow(clientID(r), 1); !ok {
			writeRateLimited(w, retry)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// clientID resolves the quota identity of a request: a well-formed
// X-Client-Id header, else the remote host.
func clientID(r *http.Request) string {
	if id := sanitizeTraceID(r.Header.Get(HeaderClientID)); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeRateLimited answers 429 with a Retry-After the client can back
// off on: the token deficit rounded up to whole seconds (never +1 past
// an exact-second deficit), floored at 1 so the header is never 0.
func writeRateLimited(w http.ResponseWriter, retry time.Duration) {
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, errorBody{
		Error:      "serve: rate limit exceeded",
		RetryAfter: retry.Round(time.Millisecond).String(),
	})
}

// handleHealth answers GET /healthz: plain liveness for the
// single-process daemon, and — in fleet mode — the node's identity
// and membership so operators can read the topology off any replica.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.peers == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"node":    s.peers.Self().ID,
		"members": s.peers.Members(),
	})
}

// withTracing gives every non-/debug/ request a request-scoped trace,
// carried in the request's context: an id (honored from X-Trace-Id,
// else drawn from the trace store's deterministic source), a root span
// the request's phases open under, and — after the response is written
// — a tail-sampling offer to the retention store. /debug/ endpoints are
// exempt so reading traces does not mint traces.
func (s *Server) withTracing(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/debug/") {
			next.ServeHTTP(w, r)
			return
		}
		id := sanitizeTraceID(r.Header.Get("X-Trace-Id"))
		if id == "" {
			id = s.traces.NewID()
		}
		tr := obs.NewTrace(id, r.Method+" "+r.URL.Path, s.traces.Now())
		w.Header().Set("X-Trace-Id", id)
		rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(obs.ContextWithTrace(r.Context(), tr)))
		tr.Finish(rec.status, s.traces.Now())
		s.traces.Offer(tr)
	})
}

// sanitizeTraceID returns the id if it is safe to echo into headers,
// logs, and URL paths — ASCII letters, digits, '-', '_', at most
// maxTraceIDLen — and "" otherwise.
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > maxTraceIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return ""
		}
	}
	return id
}

// statusWriter captures the response status for trace finalization,
// forwarding Flush and exposing Unwrap like the daemon's logging
// recorder so streaming handlers behind the middleware keep working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleReady answers GET /readyz: 200 while serving, 503 once
// SetDraining has run, so fleet load balancers stop routing here
// before Shutdown closes the listener.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics answers GET /metrics, content-negotiated: Prometheus
// text exposition by default, the JSON registry snapshot when the
// Accept header asks for application/json.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := obs.Default().Snapshot()
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// handleTraceIndex answers GET /debug/traces with the retained-trace
// index, newest first.
func (s *Server) handleTraceIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.List()})
}

// handleTraceGet answers GET /debug/traces/{id} with one trace's full
// span tree. Traces of still-running detached computations render
// their current, partially complete state.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no retained trace %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot(s.traces.Now()))
}

// handleRun answers POST /v1/experiments/{name}. The body, when
// present, is a partial experiments.Params JSON object merged over the
// preset selected by ?preset=scaled (default) or ?preset=paper.
//
// In fleet mode, a request whose content address is owned by another
// replica is proxied there (unless already forwarded once), so the
// owner computes and caches it; any proxy failure degrades to local
// serving.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := experiments.Lookup(name); !ok {
		writeError(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown experiment %q", name)})
		return
	}
	preset := r.URL.Query().Get("preset")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading body: %v", err)})
		return
	}
	params, perr := mergeParams(name, preset, body)
	if perr != nil {
		writeError(w, http.StatusBadRequest, errorBody{Error: perr.Error()})
		return
	}

	if s.forwardToOwner(w, r, name, preset, body, params) {
		return
	}

	resp, err := s.Do(r.Context(), name, params)
	if err != nil {
		s.writeDoError(w, r, err)
		return
	}
	w.Header().Set("X-Cache", string(resp.Status))
	writeBody(w, http.StatusOK, resp.Entry.Body)
}

// mergeParams resolves the effective parameters of a request: the
// named experiment's preset (scaled by default, ?preset=paper for
// paper scale) with the body's partial Params object merged over it,
// and the knobs the experiment ignores cleared (Spec.Resolve).
func mergeParams(name, preset string, body []byte) (experiments.Params, error) {
	spec, ok := experiments.Lookup(name)
	if !ok {
		return experiments.Params{}, fmt.Errorf("unknown experiment %q", name)
	}
	params := spec.Paper
	switch preset {
	case "", "scaled":
		params = params.Scale(defaultScaleSteps)
	case "paper":
	default:
		return experiments.Params{}, fmt.Errorf("unknown preset %q (use scaled or paper)", preset)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	// io.EOF means an absent body: run the preset as-is.
	if err := dec.Decode(&params); err != nil && !errors.Is(err, io.EOF) {
		return experiments.Params{}, fmt.Errorf("bad params body: %v", err)
	}
	return spec.Resolve(params), nil
}

// withBody returns e carrying its response body: e's Envelope as
// json.Marshal encodes it, plus a newline. The server encodes it once,
// when it admits an entry (computed, promoted from disk or filled by a
// peer), and every successful response from the entry writes those
// bytes, so every node answering from the same entry produces
// byte-identical bodies. Marshal compacts and HTML-escapes the raw
// fields, so an entry whose result a peer or an edited disk file
// supplied with whitespace is served compacted.
func withBody(e resultcache.Entry) (resultcache.Entry, error) {
	data, err := json.Marshal(Envelope{
		Experiment: e.Experiment,
		Key:        e.Key.String(),
		Params:     e.Params,
		Result:     e.Result,
		Manifest:   e.Manifest,
	})
	if err != nil {
		return resultcache.Entry{}, fmt.Errorf("serve: encoding response: %w", err)
	}
	e.Body = append(data, '\n')
	return e, nil
}

// forwardCache maps the owner's X-Cache onto the client-facing value:
// a hit on the owner was, from the node the client addressed, served
// out of a peer's cache.
func forwardCache(cache string) string {
	if cache == string(StatusHit) {
		return string(StatusPeer)
	}
	return cache
}

// forwardToOwner proxies the request to the replica that owns its
// content address and relays the answer, reporting whether it wrote
// the response. It declines (returns false, serving locally) outside
// fleet mode, for requests already forwarded once, for keys this node
// owns, for parameters local validation would reject anyway — and,
// crucially, on any forwarding error, which is the fleet's graceful
// degradation: a dead owner costs a local recompute, never an error.
func (s *Server) forwardToOwner(w http.ResponseWriter, r *http.Request, name, preset string, body []byte, params experiments.Params) bool {
	if s.peers == nil || r.Header.Get(HeaderFleetForwarded) != "" {
		return false
	}
	if spec, _ := experiments.Lookup(name); spec.Validate(params) != nil {
		return false // let the local path produce the 400
	}
	owner, self := s.peers.Owner(RequestKey(name, params))
	if self {
		return false
	}
	fr, err := s.peers.Forward(r.Context(), owner, name, preset, body)
	if err != nil {
		return false
	}
	if cache := forwardCache(fr.Cache); cache != "" {
		w.Header().Set("X-Cache", cache)
	}
	w.Header().Set("X-Fleet-Node", owner.ID)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(fr.Body)))
	w.WriteHeader(fr.StatusCode)
	w.Write(fr.Body)
	return true
}

// writeDoError maps Server.Do errors onto HTTP statuses. Every error
// body goes through writeError — one encoding path, every response
// with Content-Length. The overload 503 carries a Retry-After derived
// from the queue depth and the observed mean compute time, so backoff
// scales with how far behind the server actually is.
func (s *Server) writeDoError(w http.ResponseWriter, r *http.Request, err error) {
	var overload *OverloadError
	var deadline *DeadlineError
	var panicked *PanicError
	switch {
	case errors.Is(err, ErrUnknownExperiment):
		writeError(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.Is(err, ErrInvalidParams):
		writeError(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.As(err, &overload):
		hint := s.RetryAfterHint(overload.QueueDepth)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(hint.Seconds()))))
		writeError(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), QueueDepth: overload.QueueDepth})
	case errors.As(err, &deadline):
		writeError(w, http.StatusGatewayTimeout, errorBody{Error: err.Error(), Timeout: deadline.Timeout.String()})
	case errors.As(err, &panicked):
		writeError(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	case r.Context().Err() != nil:
		// The client is gone; nothing useful can be written. 499 is
		// the de-facto "client closed request" status.
		w.WriteHeader(499)
	default:
		writeError(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// handleList answers GET /v1/experiments from the registry.
func handleList(w http.ResponseWriter, r *http.Request) {
	specs := experiments.Registry()
	out := make([]listEntry, len(specs))
	for i, spec := range specs {
		out[i] = listEntry{
			Name:         spec.Name,
			Description:  spec.Desc,
			PaperParams:  spec.Paper,
			ScaledParams: spec.Paper.Scale(defaultScaleSteps),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// writeJSON encodes v as a JSON response body: the error and listing
// bodies. Experiment results write their entry's stored body instead.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Marshal of the response types cannot fail in practice; keep a
		// non-recursive fallback for safety.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, append(data, '\n'))
}

// writeBody writes an encoded JSON body with Content-Type and
// Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeError writes a JSON error body through writeJSON, so every
// error response carries Content-Length.
func writeError(w http.ResponseWriter, status int, body errorBody) {
	writeJSON(w, status, body)
}
