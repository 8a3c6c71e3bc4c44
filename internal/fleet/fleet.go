package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"sfcacd/internal/faultinject"
	"sfcacd/internal/obs"
	"sfcacd/internal/resultcache"
	"sfcacd/internal/serve"
)

// Fault-injection sites on the peer path. Both Fetch (peek/result)
// and Forward consult them once per peer contacted, so a spec like
// "fleet.peer_get=1" simulates a full partition — every peer
// unreachable — and "fleet.peer_latency=1:50ms" a slow network, both
// replaying deterministically under a seed.
const (
	// SitePeerGet fails the peer request outright.
	SitePeerGet = "fleet.peer_get"
	// SitePeerLatency adds latency before the peer request (configure
	// with a delay and no error for latency-only injection).
	SitePeerLatency = "fleet.peer_latency"
)

// DefaultTimeout bounds one peer cache-protocol exchange (peek +
// result). Peer fills race a recomputation measured in hundreds of
// milliseconds, so anything slower than this is worth abandoning.
const DefaultTimeout = 2 * time.Second

// DefaultFetchCandidates is how many replicas (owner first, then ring
// siblings) a miss consults before recomputing locally.
const DefaultFetchCandidates = 2

// maxPeerBody bounds a relayed peer response; result envelopes are
// MBs at paper scale, never GBs.
const maxPeerBody = 64 << 20

// Store is the local finished-result lookup the peer protocol serves
// from; *serve.Server implements it. It must never compute. ctx is
// the peer request's, carrying its trace.
type Store interface {
	CachedEntry(ctx context.Context, k resultcache.Key) (resultcache.Entry, bool)
}

// Config describes one node's view of the fleet.
type Config struct {
	// NodeID names this node on the ring; defaults to Advertise.
	// Every process in the fleet must agree on every member's ID —
	// routing is a pure function of the sorted ID list.
	NodeID string
	// Advertise is the base URL peers reach this node at (required).
	Advertise string
	// Peers lists the other members as "url" or "id=url".
	Peers []string
	// VirtualNodes per member; 0 means DefaultVirtualNodes.
	VirtualNodes int
	// FetchCandidates is the number of replicas a miss consults; 0
	// means DefaultFetchCandidates.
	FetchCandidates int
	// Timeout bounds one peer cache-protocol exchange; 0 means
	// DefaultTimeout. Forwards are not subject to it (they carry a
	// whole computation) — they run under the client request context.
	Timeout time.Duration
	// Faults, when set, arms SitePeerGet / SitePeerLatency.
	Faults *faultinject.Injector
	// Store serves this node's /internal/v1/ peek and result
	// endpoints (required).
	Store Store
	// Client overrides the peer HTTP client (tests); nil uses a
	// default with sane connection reuse.
	Client *http.Client
}

// Node is one fleet member: the ring, the peer-protocol client the
// serving layer fetches and forwards through (it implements
// serve.PeerSource), and the peer-protocol server other members call.
type Node struct {
	self    serve.MemberInfo
	members []serve.MemberInfo // sorted by ID
	byID    map[string]serve.MemberInfo
	ring    *Ring
	store   Store
	client  *http.Client
	timeout time.Duration
	fetchN  int
	faults  *faultinject.Injector

	peerHits, peerMisses, peerErrors *obs.Counter
	forwards, forwardErrors          *obs.Counter
	peerServes                       *obs.Counter
	peerLatency                      *obs.Histogram
}

// New validates the membership and returns the node. Member IDs must
// be distinct and URLs well-formed; the advertise URL is this node's
// own membership entry.
func New(cfg Config) (*Node, error) {
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("fleet: an advertise URL is required")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: a result store is required")
	}
	self, err := parseMember(cfg.NodeID, cfg.Advertise)
	if err != nil {
		return nil, err
	}
	self.Self = true
	byID := map[string]serve.MemberInfo{self.ID: self}
	ids := []string{self.ID}
	for _, spec := range cfg.Peers {
		id, u, _ := strings.Cut(spec, "=")
		if u == "" {
			id, u = "", id
		}
		m, err := parseMember(id, u)
		if err != nil {
			return nil, err
		}
		if _, dup := byID[m.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate member id %q", m.ID)
		}
		byID[m.ID] = m
		ids = append(ids, m.ID)
	}
	ring := NewRing(ids, cfg.VirtualNodes)
	members := make([]serve.MemberInfo, len(ring.Members()))
	for i, id := range ring.Members() {
		members[i] = byID[id]
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	fetchN := cfg.FetchCandidates
	if fetchN <= 0 {
		fetchN = DefaultFetchCandidates
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	return &Node{
		self:          self,
		members:       members,
		byID:          byID,
		ring:          ring,
		store:         cfg.Store,
		client:        client,
		timeout:       timeout,
		fetchN:        fetchN,
		faults:        cfg.Faults,
		peerHits:      obs.GetCounter("fleet.peer_hits"),
		peerMisses:    obs.GetCounter("fleet.peer_misses"),
		peerErrors:    obs.GetCounter("fleet.peer_errors"),
		forwards:      obs.GetCounter("fleet.forwards"),
		forwardErrors: obs.GetCounter("fleet.forward_errors"),
		peerServes:    obs.GetCounter("fleet.peer_serves"),
		peerLatency:   obs.GetHistogram("fleet.peer_latency_ns", obs.ExponentialBuckets(1e3, 10, 8)),
	}, nil
}

// parseMember normalizes one member spec. The ID defaults to the
// URL, so a fleet configured by bare URLs agrees on identity as long
// as every process spells each URL identically.
func parseMember(id, rawURL string) (serve.MemberInfo, error) {
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return serve.MemberInfo{}, fmt.Errorf("fleet: bad member URL %q (want http://host:port)", rawURL)
	}
	base := strings.TrimSuffix(u.String(), "/")
	if id == "" {
		id = base
	}
	return serve.MemberInfo{ID: id, URL: base}, nil
}

// Self implements serve.PeerSource.
func (n *Node) Self() serve.MemberInfo { return n.self }

// Members implements serve.PeerSource: the membership sorted by ID.
func (n *Node) Members() []serve.MemberInfo { return append([]serve.MemberInfo(nil), n.members...) }

// Owner implements serve.PeerSource: the replica the ring assigns the
// key to, and whether that is this node.
func (n *Node) Owner(key resultcache.Key) (serve.MemberInfo, bool) {
	id := n.ring.Owner(key[:])
	return n.byID[id], id == n.self.ID
}

// Fetch implements serve.PeerSource: ask the owner and sibling
// replicas for a finished entry. Candidates are consulted in ring
// order; every failure mode — fault injection, transport error,
// timeout, bad checksum — just moves to the next candidate, and a
// fleet of one returns false immediately.
func (n *Node) Fetch(ctx context.Context, key resultcache.Key) (resultcache.Entry, bool) {
	if len(n.members) < 2 {
		return resultcache.Entry{}, false
	}
	// +1 candidate in case this node is among the first fetchN
	// replicas (it is skipped below).
	for _, id := range n.ring.Replicas(key[:], n.fetchN+1) {
		if id == n.self.ID {
			continue
		}
		if e, ok := n.fetchFrom(ctx, n.byID[id], key); ok {
			n.peerHits.Inc()
			return e, true
		}
	}
	n.peerMisses.Inc()
	return resultcache.Entry{}, false
}

// fetchFrom asks one peer: peek (cheap presence probe), then the
// checksummed result transfer.
func (n *Node) fetchFrom(ctx context.Context, m serve.MemberInfo, key resultcache.Key) (resultcache.Entry, bool) {
	start := time.Now()
	defer func() { n.peerLatency.Observe(float64(time.Since(start).Nanoseconds())) }()
	ctx, cancel := context.WithTimeout(ctx, n.timeout)
	defer cancel()
	if err := n.checkFaults(ctx); err != nil {
		n.peerErrors.Inc()
		return resultcache.Entry{}, false
	}
	present, err := n.peek(ctx, m, key)
	if err != nil {
		n.peerErrors.Inc()
		return resultcache.Entry{}, false
	}
	if !present {
		return resultcache.Entry{}, false
	}
	data, err := n.get(ctx, m.URL+"/internal/v1/result/"+key.String())
	if err != nil {
		n.peerErrors.Inc()
		return resultcache.Entry{}, false
	}
	e, err := resultcache.Import(data, key)
	if err != nil {
		n.peerErrors.Inc()
		return resultcache.Entry{}, false
	}
	return e, true
}

// checkFaults consumes one decision at each peer site: injected
// latency first (partition slowness), then an injected error
// (partition loss).
func (n *Node) checkFaults(ctx context.Context) error {
	if err := n.faults.CheckCtx(ctx, SitePeerLatency); err != nil {
		return err
	}
	return n.faults.CheckCtx(ctx, SitePeerGet)
}

// peek asks whether m holds key, without transferring the entry.
func (n *Node) peek(ctx context.Context, m serve.MemberInfo, key resultcache.Key) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/internal/v1/peek/"+key.String(), nil)
	if err != nil {
		return false, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("fleet: peek on %s answered %d", m.ID, resp.StatusCode)
	}
}

// get performs one bounded peer GET, returning the body of a 200.
func (n *Node) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("fleet: peer answered %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
}

// Forward implements serve.PeerSource: proxy one experiment request
// to its owner. The owner serves it under its own admission control
// and deadline; 5xx answers and transport errors return an error so
// the caller degrades to local computation, while 2xx/4xx answers are
// relayed verbatim (a 400 is a 400 everywhere).
func (n *Node) Forward(ctx context.Context, owner serve.MemberInfo, experiment, preset string, body []byte) (*serve.ForwardResult, error) {
	if err := n.checkFaults(ctx); err != nil {
		n.forwardErrors.Inc()
		return nil, err
	}
	u := owner.URL + "/v1/experiments/" + url.PathEscape(experiment)
	if preset != "" {
		u += "?preset=" + url.QueryEscape(preset)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(string(body)))
	if err != nil {
		n.forwardErrors.Inc()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.HeaderFleetForwarded, "1")
	resp, err := n.client.Do(req)
	if err != nil {
		n.forwardErrors.Inc()
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		n.forwardErrors.Inc()
		return nil, fmt.Errorf("fleet: owner %s answered %d", owner.ID, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		n.forwardErrors.Inc()
		return nil, err
	}
	n.forwards.Inc()
	return &serve.ForwardResult{
		StatusCode: resp.StatusCode,
		Cache:      resp.Header.Get("X-Cache"),
		Body:       data,
	}, nil
}

// Handler returns the peer-protocol endpoints this node serves to its
// fleet:
//
//	GET /internal/v1/peek/{key}     presence probe: 200 if the finished
//	                                entry is cached here, 404 if not
//	GET /internal/v1/result/{key}   checksummed entry transfer
//
// Neither endpoint ever computes: they read the local caches only, so
// peer traffic cannot recurse or amplify load. The daemon mounts the
// handler behind serve.Server.Traced, so each read is traced under the
// request's id.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /internal/v1/peek/{key}", n.handlePeek)
	mux.HandleFunc("GET /internal/v1/result/{key}", n.handleResult)
	return mux
}

// peerKey parses the {key} path component.
func peerKey(w http.ResponseWriter, r *http.Request) (resultcache.Key, bool) {
	k, err := resultcache.ParseKey(r.PathValue("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return resultcache.Key{}, false
	}
	return k, true
}

// handlePeek answers GET /internal/v1/peek/{key}.
func (n *Node) handlePeek(w http.ResponseWriter, r *http.Request) {
	key, ok := peerKey(w, r)
	if !ok {
		return
	}
	e, ok := n.store.CachedEntry(r.Context(), key)
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintf(w, "{\"present\":false}\n")
		return
	}
	var env resultcache.Envelope
	if err := json.Unmarshal(e.Body, &env); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintf(w, "{\"present\":true,\"experiment\":%q,\"node\":%q}\n", env.Experiment, n.self.ID)
}

// handleResult answers GET /internal/v1/result/{key} with the
// Export-ed entry: its body behind a checksum line.
func (n *Node) handleResult(w http.ResponseWriter, r *http.Request) {
	key, ok := peerKey(w, r)
	if !ok {
		return
	}
	e, ok := n.store.CachedEntry(r.Context(), key)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintf(w, "{\"present\":false}\n")
		return
	}
	data := resultcache.Export(e)
	n.peerServes.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	w.Write(data)
}
