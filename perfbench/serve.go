package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"sfcacd/internal/experiments"
	"sfcacd/internal/obs"
	"sfcacd/internal/resultcache"
	"sfcacd/internal/rng"
	"sfcacd/internal/serve"
)

// The serve workload drives an in-process serve.Server behind
// serve.NewHandler on loopback HTTP with a closed loop of serveClients
// keep-alive clients, each sending its next request when the previous
// one completes. Every request is POST /v1/experiments/table12 one
// scale step below the scaled preset. The clients run in rounds of
// serveMissEvery requests each: serveMissEvery-1 requests to hot keys
// (warmed during set-up, so cache hits), then one with a fresh seed (a
// cold miss). The clients meet between rounds, so their hits overlap
// each other and their misses overlap each other: hit latency measures
// the cache path under two clients, not the luck of landing beside a
// computation.
const (
	serveClients   = 2
	serveHotKeys   = 16
	serveMissEvery = 20
	// serveTracedRequests is how many planned requests the traced run
	// sends from one client.
	serveTracedRequests = 400
	serveExperiment     = "table12"
)

// serveHotDigest is the SHA-256 of the hot keys' experiment, key and
// result fields at defaultSeed (the manifest, which records wall
// times, is left out).
const serveHotDigest = "f0f2959540cce30c76300a706836f07315838363eca165f2986ff086da9cb91f"

// serveParams returns the request parameters for a given Params.Seed:
// 3,906 particles on a 128x128 grid, p = 1,024, radius 1, 3 trials.
func serveParams(seed uint64) experiments.Params {
	return experiments.Params{Particles: 3906, Order: 7, ProcOrder: 5, Radius: 1, Trials: 3, Seed: seed}
}

// hotSeed and missSeed derive disjoint Params.Seed values from the
// benchmark seed: hot key i, and client c's j-th fresh seed.
func hotSeed(seed int64, i int) uint64 { return uint64(seed)<<24 | uint64(i) }
func missSeed(seed int64, c, j int) uint64 {
	return uint64(seed)<<24 | 1<<23 | uint64(c)<<20 | uint64(j)
}

// request is one planned request: a hot key, or a fresh seed.
type request struct {
	hot  int // hot key index; -1 for a miss
	seed uint64
}

// planner generates one client's request sequence from the seed: the
// last request of every serveMissEvery is a miss, the others pick a
// hot key uniformly.
type planner struct {
	seed      int64
	client    int
	r         *rng.Rand
	n, misses int
}

func newPlanner(seed int64, client int) *planner {
	return &planner{seed: seed, client: client, r: rng.New(uint64(seed)*serveMissEvery + uint64(client) + 1)}
}

func (p *planner) next() request {
	p.n++
	if p.n%serveMissEvery == 0 {
		p.misses++
		return request{hot: -1, seed: missSeed(p.seed, p.client, p.misses-1)}
	}
	h := p.r.Intn(serveHotKeys)
	return request{hot: h, seed: hotSeed(p.seed, h)}
}

// serveSetup is a listening server with its hot keys warmed.
type serveSetup struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	// bodies[i] is hot key i's response body from its first
	// computation.
	bodies [][]byte
}

// newServeSetup starts a server on a loopback port and warms the hot
// keys from serveClients goroutines.
func newServeSetup(seed int64) (*serveSetup, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	srv := serve.New(serve.Options{})
	s := &serveSetup{
		srv:    srv,
		hs:     &http.Server{Handler: serve.NewHandler(srv)},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/experiments/" + serveExperiment,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		bodies: make([][]byte, serveHotKeys),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < serveHotKeys; i += serveClients {
				body, _, err := s.post(serveParams(hotSeed(seed, i)))
				if err != nil {
					errs[c] = err
					return
				}
				s.bodies[i] = body
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, fmt.Errorf("warming hot keys: %w", err)
	}
	return s, nil
}

// post sends one request and returns the body and X-Cache header of a
// 200 response.
func (s *serveSetup) post(p experiments.Params) ([]byte, string, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return nil, "", err
	}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// close stops the listener, waits for in-flight computations, and
// drops idle client connections.
func (s *serveSetup) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.srv.Drain(ctx))
	s.client.CloseIdleConnections()
	return err
}

// envelope is the part of a response body the checks read.
type envelope struct {
	Experiment string          `json:"experiment"`
	Key        string          `json:"key"`
	Result     json.RawMessage `json:"result"`
}

// hotDigest hashes the hot keys' experiment, key and result fields.
func (s *serveSetup) hotDigest() (string, error) {
	h := sha256.New()
	for _, b := range s.bodies {
		var e envelope
		if err := json.Unmarshal(b, &e); err != nil {
			return "", fmt.Errorf("decoding hot body: %w", err)
		}
		fmt.Fprintf(h, "%s\n%s\n%s\n", e.Experiment, e.Key, e.Result)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (s *serveSetup) checkDigest(r *report, seed int64) {
	got, err := s.hotDigest()
	if err != nil {
		r.fail("%v", err)
		return
	}
	fmt.Fprintf(r.stderr, "perfbench: serve hot bodies sha256 %s (seed %d)\n", got, seed)
	if seed != defaultSeed {
		return
	}
	if got != serveHotDigest {
		r.fail("serve hot bodies digest %s, want %s", got, serveHotDigest)
		return
	}
	r.op(true)
}

// check verifies one response: a hot key's body must be byte-identical
// to its first computation's and come from the cache; a miss must be
// computed fresh under the key of its parameters.
func (s *serveSetup) check(q request, body []byte, cache string, err error) error {
	switch {
	case err != nil:
		return err
	case q.hot >= 0 && !bytes.Equal(body, s.bodies[q.hot]):
		return fmt.Errorf("hot key %d body differs from its first computation", q.hot)
	case q.hot >= 0 && cache != string(serve.StatusHit):
		return fmt.Errorf("hot key %d served with X-Cache %q", q.hot, cache)
	case q.hot >= 0:
		return nil
	case cache != string(serve.StatusMiss):
		return fmt.Errorf("fresh seed %d served with X-Cache %q", q.seed, cache)
	}
	var e envelope
	if err := json.Unmarshal(body, &e); err != nil {
		return fmt.Errorf("decoding miss body: %w", err)
	}
	if want := serve.RequestKey(serveExperiment, serveParams(q.seed)).String(); e.Key != want {
		return fmt.Errorf("fresh seed %d answered under key %s, want %s", q.seed, e.Key, want)
	}
	return nil
}

// clientLog is what one closed-loop client saw in one round.
type clientLog struct {
	hits, misses []time.Duration
	failures     []error
}

// runServe measures the end-to-end metrics. Set-up is a fresh server's
// start plus warming the hot keys. An operation is one HTTP request.
// Between rounds the calibration kernel runs on an idle server.
func runServe(cfg config, r *report) error {
	cal := newCalibrator()
	s, setup, err := repeatSetup(cal, func() (*serveSetup, error) { return newServeSetup(cfg.seed) }, (*serveSetup).close)
	if err != nil {
		return err
	}
	s.checkDigest(r, cfg.seed)

	planners := make([]*planner, serveClients)
	for c := range planners {
		planners[c] = newPlanner(cfg.seed, c)
	}
	var hits, misses, rawHits, rawMisses []float64
	var loop float64 // calibrated ns
	before := cal.run()
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		logs := make([]clientLog, serveClients)
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := range planners {
			wg.Add(1)
			go func(pl *planner, l *clientLog) {
				defer wg.Done()
				for i := 0; i < serveMissEvery; i++ {
					q := pl.next()
					t := time.Now()
					body, cache, err := s.post(serveParams(q.seed))
					d := time.Since(t)
					if err := s.check(q, body, cache, err); err != nil {
						l.failures = append(l.failures, err)
					} else if q.hot >= 0 {
						l.hits = append(l.hits, d)
					} else {
						l.misses = append(l.misses, d)
					}
				}
			}(planners[c], &logs[c])
		}
		wg.Wait()
		round := time.Since(t0)
		after := cal.run()
		k := (before + after) / 2
		before = after
		loop += calibrated(round, k)
		for _, l := range logs {
			for _, d := range l.hits {
				rawHits = append(rawHits, ms(d))
				hits = append(hits, calibrated(d, k)/float64(time.Millisecond))
			}
			for _, d := range l.misses {
				rawMisses = append(rawMisses, ms(d))
				misses = append(misses, calibrated(d, k)/float64(time.Millisecond))
			}
			for _, err := range l.failures {
				r.fail("serve: %v", err)
			}
		}
	}
	if err := s.close(); err != nil {
		return err
	}
	r.attempted += int64(len(hits) + len(misses))
	if len(hits) == 0 || len(misses) == 0 {
		return fmt.Errorf("the run completed %d hits and %d misses; both are needed", len(hits), len(misses))
	}
	all := append(append([]float64(nil), hits...), misses...)
	rss := peakRSSMiB()
	r.set("setup_s", setup)
	r.set("op_ms_p50", median(all))
	r.set("ops_per_s", float64(len(all))/(loop/float64(time.Second)))
	r.set("peak_rss_mib", rss)
	r.note("setup_s calibrated", setup, "s", setupRuns)
	r.note("req_per_s", float64(len(all))/time.Since(start).Seconds(), "1/s", len(all))
	r.note("hit_us_p50", 1000*median(rawHits), "us", len(rawHits))
	r.noteTail("hit_us", "us", rawHits, 1000)
	r.note("miss_ms_p50", median(rawMisses), "ms", len(rawMisses))
	r.note("op_ms_p50 calibrated", median(all), "ms", len(all))
	r.note("peak_rss_mib", rss, "MiB", 1)
	r.note("fail_frac", float64(r.failed)/float64(r.attempted), "1", int(r.attempted))
	return nil
}

// traceServe measures the serve, resultcache and experiments layers:
//   - Server.Do on warm keys, and Cache.Get on their keys, in batches;
//   - one client's planned request sequence over HTTP, each request a
//     span, with the cache's hit and miss counters read around it;
//   - Spec.Run called directly on fresh seeds, with the parameters as
//     posted and with the worker share the server gives each
//     computation, the latter being the baseline of miss overhead.
func traceServe(cfg config, r *report) error {
	s, err := newServeSetup(cfg.seed)
	if err != nil {
		return err
	}
	s.checkDigest(r, cfg.seed)
	tr := cfg.tr
	ctx := context.Background()
	const batches, doCalls, getCalls = 10, 200, 2000
	keys := make([]hotKey, serveHotKeys)
	for i := range keys {
		p := serveParams(hotSeed(cfg.seed, i))
		keys[i] = hotKey{p: p, k: serve.RequestKey(serveExperiment, p)}
	}
	spec, ok := experiments.Lookup(serveExperiment)
	if !ok {
		return fmt.Errorf("experiment %s is not registered", serveExperiment)
	}

	root := tr.begin("serve")
	var doFails, getFails int
	for b := 0; b < batches; b++ {
		tr.timed("serve.do_hit", func() {
			for i := 0; i < doCalls; i++ {
				resp, err := s.srv.Do(ctx, serveExperiment, keys[i%serveHotKeys].p)
				if err != nil || resp.Status != serve.StatusHit {
					doFails++
				}
			}
		})
		tr.timed("resultcache.get", func() {
			cache := s.srv.Cache()
			for i := 0; i < getCalls; i++ {
				if _, ok := cache.Get(keys[i%serveHotKeys].k); !ok {
					getFails++
				}
			}
		})
	}
	r.op(doFails == 0)
	r.op(getFails == 0)

	hitsBefore, missesBefore := counter("resultcache.hits"), counter("resultcache.misses")
	computationsBefore := counter("serve.computations")
	pl := newPlanner(cfg.seed, 0)
	var httpFails []error
	for i := 0; i < serveTracedRequests; i++ {
		q := pl.next()
		name := "serve.http_hit"
		if q.hot < 0 {
			name = "serve.http_miss"
		}
		var body []byte
		var cache string
		var err error
		tr.timed(name, func() { body, cache, err = s.post(serveParams(q.seed)) })
		if err := s.check(q, body, cache, err); err != nil {
			httpFails = append(httpFails, err)
		}
	}
	hits, misses := counter("resultcache.hits")-hitsBefore, counter("resultcache.misses")-missesBefore
	computations := counter("serve.computations") - computationsBefore
	for _, err := range httpFails {
		r.fail("serve: %v", err)
	}
	r.op(len(httpFails) == 0)

	// The server gives each computation GOMAXPROCS / Workers() workers.
	splitWorkers := max(1, runtime.GOMAXPROCS(0)/s.srv.Workers())
	const computes = 3
	for j := 0; j < computes; j++ {
		p := serveParams(missSeed(cfg.seed, 2, j))
		var err error
		tr.timed("experiments.compute", func() { _, err = spec.Run(ctx, p) })
		r.op(err == nil)
		p = serveParams(missSeed(cfg.seed, 3, j))
		p.Workers = splitWorkers
		tr.timed("experiments.compute.split", func() { _, err = spec.Run(ctx, p) })
		r.op(err == nil)
	}
	tr.end(root)
	if err := s.close(); err != nil {
		return err
	}

	tot := layerTotals(tr.spans)
	us := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	doHit := us(tot["serve.do_hit"].Wall, batches*doCalls)
	r.set("serve.do_hit_us", doHit)
	r.set("serve.do_hit_cpu_us", us(tot["serve.do_hit"].CPU, batches*doCalls))
	r.set("resultcache.get_us", us(tot["resultcache.get"].Wall, batches*getCalls))
	r.set("resultcache.get_cpu_us", us(tot["resultcache.get"].CPU, batches*getCalls))
	nMiss := pl.misses
	nHit := serveTracedRequests - nMiss
	r.set("serve.http_us", us(tot["serve.http_hit"].Wall, nHit)-doHit)
	r.set("serve.miss_overhead_ms", ms(tot["serve.http_miss"].Wall)/float64(nMiss)-ms(tot["experiments.compute.split"].Wall)/computes)
	r.set("serve.computations_per_miss", float64(computations)/float64(nMiss))
	r.set("resultcache.hit_ratio", float64(hits)/float64(hits+misses))
	r.set("experiments.compute_ms", ms(tot["experiments.compute"].Wall)/computes)
	r.set("experiments.compute_cpu_ms", ms(tot["experiments.compute"].CPU)/computes)
	checkAttribution(tr, r)
	return nil
}

// hotKey pairs a hot key's request parameters with its cache key.
type hotKey struct {
	p experiments.Params
	k resultcache.Key
}

// counter reads a counter of the program's metrics registry.
func counter(name string) uint64 { return obs.GetCounter(name).Value() }
