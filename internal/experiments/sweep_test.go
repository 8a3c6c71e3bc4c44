package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcacd/internal/dist"
	"sfcacd/internal/obs"
	"sfcacd/internal/panics"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// TestSweepEquality pins the scheduler's determinism guarantee: every
// registered experiment produces byte-identical result JSON whether its
// sweep runs on one worker or several. This is what lets Workers stay
// outside the canonical cache key.
func TestSweepEquality(t *testing.T) {
	p := Params{Particles: 320, Order: 5, ProcOrder: 2, Radius: 1, Trials: 2, Seed: 7}
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			serial := p
			serial.Workers = 1
			out1, err := spec.Run(context.Background(), serial)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			parallel := p
			parallel.Workers = 3
			outN, err := spec.Run(context.Background(), parallel)
			if err != nil {
				t.Fatalf("workers=3: %v", err)
			}
			b1, err := json.Marshal(out1.Result)
			if err != nil {
				t.Fatal(err)
			}
			bN, err := json.Marshal(outN.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(bN) {
				t.Errorf("result bytes differ between workers=1 and workers=3\n 1: %s\n 3: %s", b1, bN)
			}
		})
	}
}

func TestSweepPool(t *testing.T) {
	cases := []struct {
		requested, cells, want int
	}{
		{0, 100, 1}, // GOMAXPROCS default (>=1 always)
		{4, 100, 4}, // explicit request honored
		{4, 2, 2},   // clamped to cell count
		{-3, 8, 1},  // negative treated as default
		{1, 0, 1},   // floor at 1
	}
	for _, c := range cases {
		got := sweepPool(c.requested, c.cells)
		if c.requested == 0 || c.requested < 0 {
			// The default is GOMAXPROCS, clamped; just check bounds.
			if got < 1 || (c.cells > 0 && got > c.cells && got != 1) {
				t.Errorf("sweepPool(%d, %d) = %d, out of bounds", c.requested, c.cells, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("sweepPool(%d, %d) = %d, want %d", c.requested, c.cells, got, c.want)
		}
	}
	if got := innerWorkers(8, 4); got != 2 {
		t.Errorf("innerWorkers(8, 4) = %d, want 2", got)
	}
	if got := innerWorkers(4, 8); got != 1 {
		t.Errorf("innerWorkers(4, 8) = %d, want 1 (floor)", got)
	}
	if got := innerWorkers(0, 1); got < 1 {
		t.Errorf("innerWorkers(0, 1) = %d, want >= 1", got)
	}
}

// TestSweepDeterministicError checks that when several cells fail, the
// error of the lowest failing cell index is returned — the one the old
// serial loop would have hit first — for any worker count.
func TestSweepDeterministicError(t *testing.T) {
	errLow := errors.New("cell 3 failed")
	errHigh := errors.New("cell 7 failed")
	for _, workers := range []int{1, 4} {
		err := runCells(context.Background(), workers, 16, func(_ *obs.Span, cell int) error {
			switch cell {
			case 3:
				return errLow
			case 7:
				return errHigh
			default:
				return nil
			}
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: got %v, want lowest-cell error %v", workers, err, errLow)
		}
	}
}

// TestSweepCancellation checks the bounded-cancellation guarantee: a
// context cancelled mid-sweep aborts the sweep after at most one more
// cell per worker, and the scheduler reports the context error.
func TestSweepCancellation(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		started := make(chan struct{})
		var once atomic.Bool
		const cells = 10000
		done := make(chan error, 1)
		go func() {
			done <- runCells(ctx, workers, cells, func(_ *obs.Span, cell int) error {
				if once.CompareAndSwap(false, true) {
					close(started)
				}
				ran.Add(1)
				time.Sleep(100 * time.Microsecond)
				return nil
			})
		}()
		<-started
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: sweep did not abort after cancellation", workers)
		}
		if n := ran.Load(); n >= cells {
			t.Errorf("workers=%d: all %d cells ran despite cancellation", workers, n)
		}
	}
}

// TestRunCellsWorkerPanic checks that a cell panicking on a pool
// worker re-panics on the caller, carrying the cell's value and the
// worker's stack, instead of ending the process, and that it stops the
// sweep: no cell starts after the panic is recovered.
func TestRunCellsWorkerPanic(t *testing.T) {
	var v any
	func() {
		defer func() { v = recover() }()
		RunCells(context.Background(), 2, 4, func(cell int) error {
			if cell == 1 {
				panic("cell 1 boom")
			}
			return nil
		})
	}()
	w, ok := v.(*panics.Worker)
	if !ok || w.Value != "cell 1 boom" || !strings.Contains(string(w.Stack), "TestRunCellsWorkerPanic") {
		t.Fatalf("recovered %#v, want a *panics.Worker of the cell's panic", v)
	}
	var ran atomic.Int64
	const cells = 400
	func() {
		defer func() { recover() }()
		runCells(context.Background(), 2, cells, func(_ *obs.Span, cell int) error {
			ran.Add(1)
			if cell == 0 {
				panic("cell 0 boom")
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}()
	if n := ran.Load(); n >= cells {
		t.Errorf("all %d cells ran after the first one panicked", n)
	}
}

// TestSweepEmpty checks the zero-cell edge case.
func TestSweepEmpty(t *testing.T) {
	if err := runCells(context.Background(), 4, 0, func(*obs.Span, int) error {
		t.Fatal("cell ran")
		return nil
	}); err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
}

// TestPlanSharedAcrossCells runs sweeps whose cells label one shared
// set per sampled particle set and replay the plan recorded on it
// before they run (by the group's build, or per step in dynamic), on
// several workers — concurrent replays, and the group slot
// dropping its set after the last cell takes it, which the race
// detector checks — and requires the one-worker results and exactly
// one set and one recording per group: a (distribution, trial) pair in
// table12, a trial across every curve and processor count in fig7, a
// timestep across every curve and both policies in dynamic.
func TestPlanSharedAcrossCells(t *testing.T) {
	builds, plans := obs.GetCounter("keynav.builds"), obs.GetCounter("keynav.plans")
	p := Params{Particles: 500, Order: 6, ProcOrder: 2, Radius: 2, Trials: 2, Seed: 5}
	const steps = 3
	for name, run := range map[string]func(Params) (any, int, error){
		"table12": func(p Params) (any, int, error) {
			res, err := RunTable12(context.Background(), p)
			return res, len(dist.All()) * p.Trials, err
		},
		"fig7": func(p Params) (any, int, error) {
			res, err := RunFig7(context.Background(), p, []uint{1, 2, 3})
			return res, p.Trials, err
		},
		"dynamic": func(p Params) (any, int, error) {
			res, err := RunDynamic(context.Background(), p, steps)
			return res, steps + 1, err
		},
	} {
		var want any
		for _, workers := range []int{1, 2, 4, 8} {
			p.Workers = workers
			b0, p0 := builds.Value(), plans.Value()
			got, groups, err := run(p)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if n := builds.Value() - b0; n != uint64(groups) {
				t.Errorf("%s workers=%d: %d sets built for %d groups", name, workers, n, groups)
			}
			if n := plans.Value() - p0; n != uint64(groups) {
				t.Errorf("%s workers=%d: %d plans recorded for %d groups", name, workers, n, groups)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: workers=%d results differ from workers=1", name, workers)
			}
		}
	}
}

// TestCellsRecordNoPlan pins where the group sweeps record their
// plans: in each group's build, never in a cell. A cell that recorded
// one would open keynav.plan beneath its accumulation phase (NFIMulti,
// FFIMulti and execmodel.CollectNFI record lazily) or, in contention,
// nowhere, so each of the ten runners whose cells replay a plan must
// show keynav.plan only directly under the sweep, at one and at two
// workers. And a one-group priceSweep of four cells at two workers
// records exactly one plan, its build's.
func TestCellsRecordNoPlan(t *testing.T) {
	for _, name := range []string{"table12", "fig6", "fig7", "radius", "nsweep", "meshtorus", "metrics", "contention", "execmodel", "loadbalance"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s: not registered", name)
		}
		for _, workers := range []int{1, 2} {
			p := registryTestParams
			p.Workers = workers
			tracer := obs.NewTracer()
			if _, err := spec.Run(obs.ContextWithSpan(context.Background(), tracer.Root()), spec.Resolve(p)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lines := phaseLines(tracer.Take())
			recorded := false
			for _, l := range lines {
				path := strings.Fields(l)[0]
				if strings.HasSuffix(path, "keynav.plan") {
					recorded = true
					if path != "sweep/keynav.plan" {
						t.Errorf("%s workers=%d: a plan recorded at %s", name, workers, path)
					}
				}
			}
			if !recorded {
				t.Errorf("%s workers=%d: no plan recorded:\n%s", name, workers, strings.Join(lines, "\n"))
			}
		}
	}

	plans := obs.GetCounter("keynav.plans")
	p := Params{Particles: 500, Order: 6, ProcOrder: 2, Radius: 2, Trials: 1, Seed: 5}
	curves := sfc.All()
	topos := torusPerCurve(p, curves)
	before := plans.Value()
	outs, err := priceSweep(context.Background(), 2, trialGroups(dist.Uniform, p), len(curves), func(_, c int) (sfc.Curve, []topology.Topology, error) {
		return curves[c], topos, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(curves) {
		t.Fatalf("%d outputs for %d cells", len(outs), len(curves))
	}
	if n := plans.Value() - before; n != 1 {
		t.Errorf("a one-group priceSweep of %d cells recorded %d plans, want its build's one", len(curves), n)
	}
}

// TestGroupSweepBuildBudget pins the workers groupSweep hands a group's
// build: the whole budget in a one-group sweep, where every other pool
// worker waits on that build, and the cells' inner share once there are
// at least as many groups as pool workers.
func TestGroupSweepBuildBudget(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, tc := range []struct{ groups, per int }{{1, 4}, {workers, 4}, {2, 1}} {
			var mu sync.Mutex
			builds, inners := map[int]bool{}, map[int]bool{}
			err := groupSweep(context.Background(), workers, tc.groups, tc.per,
				func(_ *obs.Span, g, w int) (int, error) {
					mu.Lock()
					builds[w] = true
					mu.Unlock()
					return g, nil
				},
				func(_ *obs.Span, i, g, inner int) error {
					if g != i/tc.per {
						t.Errorf("cell %d got group %d's artifact", i, g)
					}
					mu.Lock()
					inners[inner] = true
					mu.Unlock()
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			pool := min(workers, tc.groups*tc.per)
			want := map[int]bool{workers / pool: true}
			if !reflect.DeepEqual(inners, want) {
				t.Errorf("workers=%d groups=%d per=%d: cells got inner shares %v, want %v", workers, tc.groups, tc.per, inners, want)
			}
			if tc.groups == 1 {
				want = map[int]bool{workers: true}
			}
			if !reflect.DeepEqual(builds, want) {
				t.Errorf("workers=%d groups=%d per=%d: builds got %v workers, want %v", workers, tc.groups, tc.per, builds, want)
			}
		}
	}
}

// TestRunCellsSizesItsPool pins runCells's own pool sizing: the
// requested budget clamped to the cell count, as the sweep.workers
// gauge records it.
func TestRunCellsSizesItsPool(t *testing.T) {
	gauge := obs.GetGauge("sweep.workers")
	for _, budget := range []int{1, 2, 8} {
		if err := runCells(context.Background(), budget, 4, func(*obs.Span, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if got, want := gauge.Value(), float64(min(budget, 4)); got != want {
			t.Errorf("budget %d over 4 cells: sweep.workers = %v, want %v", budget, got, want)
		}
	}
}

// buildAheadSlots returns slots of groups of cells whose group 0 build
// holds, on more than one worker, until another worker waiting on it
// has started building group 1 ahead, and then runs then0. Group 1's
// build returns err1.
func buildAheadSlots(workers, groups, cells int, err1 error, then0 func()) (*groupSlots[[]int], *atomic.Int32) {
	var built atomic.Int32
	ahead := make(chan struct{})
	gs := newGroupSlots(groups, cells, func(_ *obs.Span, g int) ([]int, error) {
		built.Add(1)
		switch g {
		case 0:
			if workers > 1 {
				select {
				case <-ahead:
				case <-time.After(5 * time.Second):
				}
			}
			then0()
		case 1:
			close(ahead)
			if err1 != nil {
				return nil, err1
			}
		}
		return []int{g}, nil
	})
	return gs, &built
}

// TestGroupBuildAheadKeepsLowestError fails group 1's build while a
// worker waiting on group 0 builds it ahead, and fails a later cell of
// group 0: the sweep must return the group-0 cell's error, as the
// serial loop would. One worker builds only group 0; with more, a
// waiting worker builds group 1 ahead.
func TestGroupBuildAheadKeepsLowestError(t *testing.T) {
	const groups, cells = 4, 3
	for _, workers := range []int{1, 2, 8} {
		errGroup1, errCell := errors.New("group 1 failed"), errors.New("cell 2 failed")
		gs, built := buildAheadSlots(workers, groups, cells, errGroup1, func() {})
		err := runCells(context.Background(), workers, groups*cells, func(_ *obs.Span, cell int) error {
			v, err := gs.get(nil, cell/cells)
			if err != nil {
				return err
			}
			if v[0] != cell/cells {
				t.Errorf("workers=%d: cell %d got group %d's artifact", workers, cell, v[0])
			}
			if cell == 2 {
				return errCell
			}
			return nil
		})
		if !errors.Is(err, errCell) {
			t.Errorf("workers=%d: sweep error %v, want %v", workers, err, errCell)
		}
		if n := built.Load(); workers == 1 && n != 1 {
			t.Errorf("workers=1: %d groups built, want only group 0", n)
		}
		if workers > 1 && !gs.slots[1].started.Load() {
			t.Errorf("workers=%d: no worker built group 1 while group 0 was being built", workers)
		}
	}
}

// TestGroupBuildPanicReachesCaller panics group 0's build while another
// worker waits on it: the waiting cell must get an error, never the
// zero artifact, and the sweep must re-raise the builder's panic.
func TestGroupBuildPanicReachesCaller(t *testing.T) {
	const groups, cells = 3, 4
	for _, workers := range []int{1, 2, 8} {
		gs, _ := buildAheadSlots(workers, groups, cells, nil, func() { panic("group 0 boom") })
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			_ = runCells(context.Background(), workers, groups*cells, func(_ *obs.Span, cell int) error {
				v, err := gs.get(nil, cell/cells)
				if err == nil && v == nil {
					t.Errorf("workers=%d: cell %d got no artifact and no error", workers, cell)
				}
				if err != nil && cell/cells == 0 && !strings.Contains(err.Error(), "group 0 panicked") {
					t.Errorf("workers=%d: cell %d error %v, want the failed build's", workers, cell, err)
				}
				return err
			})
		}()
		if w, ok := recovered.(*panics.Worker); ok {
			recovered = w.Value
		}
		if recovered != "group 0 boom" {
			t.Errorf("workers=%d: recovered %#v, want the builder's panic", workers, recovered)
		}
	}
}
