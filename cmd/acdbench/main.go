// Command acdbench regenerates the paper's evaluation tables and
// figures (Tables I-II, Figures 6-7) and the extension studies, at
// paper scale or scaled down.
//
// Usage:
//
//	acdbench -experiment table12                 # scaled-down default
//	acdbench -experiment table12 -full           # exact paper parameters
//	acdbench -experiment fig6 -particles 100000  # custom overrides
//	acdbench -experiment all -report run.json    # with a run manifest
//	acdbench -list                               # registry listing
//	acdbench -cache results/cache                # reuse cached results
//
// The experiment table is experiments.Registry() — the same source of
// truth cmd/acdserverd serves over HTTP — so -list, the -experiment
// help, and the "all" expansion always match the daemon's API. With
// -cache, results are read from and written to the same
// content-addressed store the daemon uses with -cachedir: a warm entry
// renders in microseconds instead of recomputing.
//
// Result tables go to stdout; progress logging goes to stderr (-v for
// debug detail). Pass -csvdir to also write machine-readable CSVs,
// -report to emit a JSON run manifest (parameters, per-phase timings,
// metric counters, memory peaks), and -cpuprofile / -memprofile /
// -trace to capture pprof and runtime/trace artifacts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"syscall"
	"time"

	"sfcacd/internal/experiments"
	"sfcacd/internal/obs"
	"sfcacd/internal/resultcache"
	"sfcacd/internal/serve"
)

// csvDir, when set, receives one CSV file per experiment result.
var csvDir string

// logger carries progress output to stderr; result tables stay on
// stdout.
var logger *slog.Logger

// emitCSV writes the result's CSV panels into csvDir (no-op when
// unset). A failed Close is reported: on a full disk the data loss
// surfaces there, not in Write.
func emitCSV(res experiments.Result) error {
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	for _, panel := range res.CSVPanels() {
		if err := emitPanel(panel); err != nil {
			return err
		}
	}
	return nil
}

func emitPanel(panel experiments.CSVPanel) (err error) {
	path := filepath.Join(csvDir, panel.Name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if err := panel.Write(f); err != nil {
		return err
	}
	logger.Info("wrote CSV", "path", path)
	return nil
}

func main() {
	os.Exit(run())
}

// run is the real main; returning instead of os.Exit lets the
// deferred profile/trace finalizers flush before the process ends.
func run() int {
	names := experiments.Names()
	var (
		experiment = flag.String("experiment", "table12",
			"experiment to run: "+strings.Join(names, ", ")+", or all")
		list      = flag.Bool("list", false, "list the experiment registry and exit")
		full      = flag.Bool("full", false, "use exact paper-scale parameters (slow)")
		scale     = flag.Uint("scale", 2, "scale-down steps from paper parameters (each step quarters the input)")
		particles = flag.Int("particles", 0, "override particle count")
		order     = flag.Uint("order", 0, "override spatial resolution order (grid side 2^order)")
		procOrder = flag.Uint("procorder", 0, "override processor order (p = 4^procorder)")
		radius    = flag.Int("radius", 0, "override near-field radius")
		trials    = flag.Int("trials", 0, "override trial count")
		seed      = flag.Uint64("seed", 0, "override random seed")
		workers   = flag.Int("workers", 0, "cap sweep-cell and inner accumulation worker goroutines (0 = GOMAXPROCS)")
		distrib   = flag.String("dist", "", "override the particle distribution (uniform, normal, exponential)")
		incrMode  = flag.String("incr-mode", "", "maintenance mechanism for incremental experiments: incr (default; delta repair) or rebuild (ACD re-priced from scratch each tick); results are bit-identical")
		cacheDir  = flag.String("cache", "", "read/write results in this content-addressed cache directory (shared with acdserverd -cachedir)")
		cacheVer  = flag.Bool("cache-verify", false, "verify every entry in the -cache store (quarantining bad ones) and exit")
		csvDirF   = flag.String("csvdir", "", "also write machine-readable CSVs into this directory")
		report    = flag.String("report", "", "write a JSON run manifest to this file")
		determin  = flag.Bool("deterministic", false, "strip host- and time-dependent fields from the manifest")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file")
		traceOut  = flag.String("trace", "", "write a runtime/trace to this file")
		verbose   = flag.Bool("v", false, "enable debug-level progress logging")
	)
	flag.Parse()
	csvDir = *csvDirF

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *list {
		for _, spec := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", spec.Name, spec.Desc)
		}
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			logger.Error("cpuprofile", "err", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Error("cpuprofile", "err", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				logger.Error("cpuprofile close", "err", err)
			}
			logger.Info("wrote CPU profile", "path", *cpuProf)
		}()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			logger.Error("trace", "err", err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			logger.Error("trace", "err", err)
			return 1
		}
		defer func() {
			trace.Stop()
			if err := f.Close(); err != nil {
				logger.Error("trace close", "err", err)
			}
			logger.Info("wrote execution trace", "path", *traceOut)
		}()
	}

	var store *resultcache.DiskStore
	if *cacheDir != "" {
		var err error
		store, err = resultcache.OpenDisk(*cacheDir)
		if err != nil {
			logger.Error("cache", "err", err)
			return 1
		}
	}
	if *cacheVer {
		if store == nil {
			fmt.Fprintln(os.Stderr, "acdbench: -cache-verify requires -cache DIR")
			return 2
		}
		return verifyCache(store)
	}

	// Ctrl-C cancels the in-flight experiment cleanly through the
	// runners' context plumbing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// An override applies whenever its flag was given, so out-of-range
	// values reach Params.Validate instead of silently running the
	// preset.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	params := func(paper experiments.Params) experiments.Params {
		p := paper
		if !*full {
			p = paper.Scale(*scale)
		}
		if set["particles"] {
			p.Particles = *particles
		}
		if set["order"] {
			p.Order = *order
		}
		if set["procorder"] {
			p.ProcOrder = *procOrder
		}
		if set["radius"] {
			p.Radius = *radius
		}
		if set["trials"] {
			p.Trials = *trials
		}
		if set["seed"] {
			p.Seed = *seed
		}
		if set["workers"] {
			p.Workers = *workers
		}
		if set["dist"] {
			p.Distribution = *distrib
		}
		if set["incr-mode"] {
			p.IncrMode = *incrMode
		}
		return p
	}

	todo := []string{*experiment}
	if *experiment == "all" {
		todo = names
	}
	manifest := obs.NewManifest("acdbench")
	for _, name := range todo {
		spec, ok := experiments.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "acdbench: unknown experiment %q (choose from %v or all)\n", name, names)
			return 2
		}
		logger.Debug("starting experiment", "experiment", name)
		start := time.Now()
		p := spec.Resolve(params(spec.Paper))
		if err := spec.Validate(p); err != nil {
			fmt.Fprintf(os.Stderr, "acdbench: %s: %v\n", name, err)
			return 2
		}
		// Each experiment's phases open under the root of its own tracer.
		tracer := obs.NewTracer()
		effParams, err := runOne(obs.ContextWithSpan(ctx, tracer.Root()), spec, p, store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acdbench: %s: %v\n", name, err)
			return 1
		}
		wall := time.Since(start)
		manifest.AddExperiment(name, effParams, wall, tracer.Take())
		manifest.ObserveMemStats()
		logger.Info("experiment completed", "experiment", name, "wall", wall.Round(time.Millisecond))
	}

	// Derived gauge: share of communication events that stayed local.
	if events := obs.GetCounter("acd.events").Value(); events > 0 {
		zeros := obs.GetCounter("acd.zero_hops").Value()
		obs.GetGauge("acd.zero_hop_fraction").Set(float64(zeros) / float64(events))
	}
	// Derived gauge: events per distinct rank pair in the communication
	// matrices — the factor the contraction path saved over per-event
	// distance evaluation.
	if pairs := obs.GetCounter("commmat.pairs").Value(); pairs > 0 {
		events := obs.GetCounter("commmat.events").Value()
		obs.GetGauge("commmat.dedup_ratio").Set(float64(events) / float64(pairs))
	}
	manifest.Metrics = obs.Default().Snapshot()

	if *report != "" {
		if *determin {
			manifest.Deterministic()
		}
		if err := manifest.WriteFile(*report); err != nil {
			logger.Error("report", "err", err)
			return 1
		}
		logger.Info("wrote run manifest", "path", *report)
	}
	if *memProf != "" {
		runtime.GC() // materialize final live-heap figures
		f, err := os.Create(*memProf)
		if err != nil {
			logger.Error("memprofile", "err", err)
			return 1
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			logger.Error("memprofile", "err", err)
			return 1
		}
		if err := f.Close(); err != nil {
			logger.Error("memprofile close", "err", err)
			return 1
		}
		logger.Info("wrote heap profile", "path", *memProf)
	}
	return 0
}

// verifyCache walks the disk store, reporting (and quarantining) bad
// entries. Exit status 0 means every entry decoded and key-verified.
func verifyCache(store *resultcache.DiskStore) int {
	rep, err := store.Verify()
	if err != nil {
		logger.Error("cache-verify", "err", err)
		return 1
	}
	fmt.Printf("cache %s: %d entries ok, %d bad (quarantined), %d orphaned temp files swept\n",
		store.Dir(), rep.Entries, rep.Bad, rep.TmpSwept)
	for _, path := range rep.BadPaths {
		fmt.Printf("  quarantined %s\n", path)
	}
	if rep.Bad > 0 {
		return 1
	}
	return 0
}

// runOne executes (or serves from the cache) one experiment, rendering
// its tables to stdout and its CSV panels into csvDir. It returns the
// effective parameter value for the run manifest.
func runOne(ctx context.Context, spec experiments.Spec, p experiments.Params, store *resultcache.DiskStore) (any, error) {
	announce(p)
	key := serve.RequestKey(spec.Name, p)
	if store != nil {
		entry, ok, err := store.Get(nil, key)
		if err != nil {
			logger.Warn("cache read failed, recomputing", "err", err)
		} else if ok {
			var env resultcache.Envelope
			if err := json.Unmarshal(entry.Body, &env); err != nil {
				return nil, fmt.Errorf("decoding cached entry %s: %w", key, err)
			}
			res, err := spec.Decode(env.Result)
			if err != nil {
				return nil, fmt.Errorf("decoding cached result %s: %w", key, err)
			}
			logger.Info("served from cache", "experiment", spec.Name, "key", key.String()[:12])
			return env.Params, renderAndEmit(res)
		}
	}

	before := obs.Default().Snapshot()
	start := time.Now()
	out, err := spec.Run(ctx, p)
	if err != nil {
		return nil, err
	}
	if store != nil {
		entry, err := serve.BuildEntry(key, spec.Name, out, time.Since(start),
			obs.Default().Snapshot().Sub(before))
		if err != nil {
			return nil, err
		}
		if err := store.Put(nil, entry); err != nil {
			logger.Warn("cache write failed", "err", err)
		} else {
			logger.Debug("cached result", "experiment", spec.Name, "key", key.String()[:12])
		}
	}
	return out.Params, renderAndEmit(out.Result)
}

// renderAndEmit writes the result tables to stdout and the CSV panels
// to csvDir.
func renderAndEmit(res experiments.Result) error {
	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	return emitCSV(res)
}

func announce(p experiments.Params) {
	logger.Info("parameters",
		"n", p.Particles, "resolution", fmt.Sprintf("%dx%d", 1<<p.Order, 1<<p.Order),
		"p", p.P(), "radius", p.Radius, "trials", p.Trials, "seed", p.Seed)
}
