package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"sfcacd/internal/obs"
	"sfcacd/internal/panics"
)

// This file is the sweep scheduler: every runner decomposes its nested
// parameter loops (distribution x trial x particle curve x ...) into a
// flat space of independent cells and executes them here on a bounded
// worker pool, through runCells, or through groupSweep when its cells
// share per-group artifacts (a trial's particle set). A group-sharing
// runner states only its groups, its cell layout and its reduction:
// groupSweep sizes the pool, splits the budget between the pool and
// each cell's inner passes, owns the group slots, and hands out each
// group's build as a task of its own, one group ahead of its cells.
// Three properties are load-bearing:
//
//   - Determinism. Cells write into index-addressed output slots and
//     the runner reduces them in cell-index order — the same order the
//     old serial loops accumulated in — so the result bytes are
//     identical for every worker count (pinned by TestSweepEquality).
//   - Bounded cancellation. Workers check the context before every
//     task they take, so cancellation latency is at most one task, a
//     cell or a group build, regardless of how many trials or curves a
//     sweep spans. (A cell whose group another worker is still building
//     may build one later group before it waits; see groupSlots.)
//   - Deterministic errors. Tasks are handed out in increasing index
//     order from an atomic cursor, cells in increasing cell order among
//     them, a worker runs every task it takes, and only a cell's own
//     error is ever recorded (a build keeps its error for its cells);
//     of the recorded errors the lowest cell index wins, which
//     reproduces the error the serial loop would have returned.
var (
	// sweepCellsRun counts executed sweep cells across all runners.
	sweepCellsRun = obs.GetCounter("sweep.cells")
	// sweepWorkersGauge records the pool size of the most recent sweep.
	sweepWorkersGauge = obs.GetGauge("sweep.workers")
)

// sweepPool resolves the outer worker-pool size for a sweep of the
// given cell count: the requested Params.Workers, defaulting to
// GOMAXPROCS, clamped to the cell count.
func sweepPool(requested, cells int) int {
	return max(min(workerBudget(requested), cells), 1)
}

// workerBudget resolves a sweep's total worker budget: the requested
// Params.Workers, defaulting to GOMAXPROCS.
func workerBudget(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// innerWorkers splits the worker budget between the sweep pool and the
// per-cell accumulation passes: with `pool` cells running at once,
// each gets total/pool inner workers (at least 1) so a sweep does not
// oversubscribe the machine by pool x GOMAXPROCS goroutines.
// Inner results are worker-count-invariant, so the split cannot change
// any output.
func innerWorkers(requested, pool int) int {
	w := workerBudget(requested) / pool
	if w < 1 {
		w = 1
	}
	return w
}

// RunCells exposes the sweep scheduler beyond the experiment runners:
// the serving layer's batch endpoint fans request cells out across the
// fleet with exactly the cell-handout, cancellation, and error
// semantics the in-process sweeps use. workers is the requested budget
// (0 means GOMAXPROCS); see runCells for the contract.
func RunCells(ctx context.Context, workers, cells int, run func(cell int) error) error {
	return runCells(ctx, workers, cells, func(_ *obs.Span, cell int) error { return run(cell) })
}

// runCells executes cells 0..cells-1 on a pool of sweepPool(workers,
// cells) goroutines: the requested budget (0 means GOMAXPROCS) clamped
// to the cell count. run must be safe for concurrent calls on distinct
// cell indices and must write its output only to slots owned by its
// cell. The cells run as runTasks's tasks, in index order.
//
// The sweep is timed as a "sweep" phase under the span ctx carries
// (obs.SpanFrom; none records nothing), and every cell gets that sweep
// span as the parent of its own phases.
func runCells(ctx context.Context, workers, cells int, run func(sweep *obs.Span, cell int) error) error {
	if cells <= 0 {
		return ctx.Err()
	}
	pool, span := openSweep(ctx, workers, cells)
	defer span.End()
	return runTasks(ctx, pool, cells, func(t int) error { return run(span, t) })
}

// openSweep sizes the pool of a sweep over the given cells, counts them
// in sweep.cells, records the pool in the sweep.workers gauge, and
// opens the sweep span under the span ctx carries, annotated with both.
func openSweep(ctx context.Context, workers, cells int) (int, *obs.Span) {
	pool := sweepPool(workers, cells)
	sweepCellsRun.Add(uint64(cells))
	sweepWorkersGauge.Set(float64(pool))
	span := obs.SpanFrom(ctx).Child("sweep")
	span.Annotate("cells", strconv.Itoa(cells))
	span.Annotate("workers", strconv.Itoa(pool))
	return pool, span
}

// runTasks runs tasks 0..tasks-1 on pool goroutines, handed out in
// index order from one atomic cursor. The context is checked before
// every task, bounding cancellation latency to one task; a cancelled
// context yields ctx.Err() unless a task failed first. On failure the
// sweep stops early and the error of the lowest failing task index is
// returned. A task that panics on a pool worker stops the sweep too,
// and the first such panic is re-raised on the caller once every
// worker has returned.
func runTasks(ctx context.Context, pool, tasks int, run func(t int) error) error {
	if pool <= 1 {
		for t := 0; t < tasks; t++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(t); err != nil {
				return err
			}
		}
		return nil
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		failTask = -1
		failErr  error
	)
	var guard panics.Guard
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard.Recover()
			for {
				// Check before taking a task, never after: a worker that
				// took task t runs it, so a failure at a higher index,
				// which cancels sctx, cannot skip a lower task whose
				// error the serial loop would have returned.
				if sctx.Err() != nil || guard.Stopped() {
					return
				}
				t := int(next.Add(1)) - 1
				if t >= tasks {
					return
				}
				if err := run(t); err != nil {
					// Tasks never return context errors themselves (the
					// scheduler owns all ctx checks), so every recorded
					// error is a real failure; the monotone cursor
					// guarantees the serial loop would have hit the
					// lowest recorded index first.
					mu.Lock()
					if failTask == -1 || t < failTask {
						failTask, failErr = t, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	guard.Repanic()
	if failTask != -1 {
		return failErr
	}
	return ctx.Err()
}

// groupSweep runs groups x per cells, cell i belonging to group i/per,
// on the pool runCells sizes for them, for the requested budget workers
// (0 means GOMAXPROCS). Each group's artifact is built once, by
// build(sweep, g, w), and handed read-only to each of its cells,
// cell(sweep, i, v, inner), inner being a cell's share of the budget
// for its own accumulation passes. A build is a task on the cells'
// cursor (groupTasks): on a pool of two or more it is handed out one
// group ahead of the group's cells, so one worker builds the next
// group while another prices the current one; on one worker it comes
// right before its own cells. The sweep's counter, gauge and span
// count cells, not builds. A build gets the budget's share among the
// workers that can be building at once, one per group up to the pool:
// the cells' inner share when there are at least as many groups as
// pool workers, and the whole budget in a one-group sweep, whose other
// workers wait on its build. Build and cell open their phases under
// the sweep span they are handed.
func groupSweep[T any](ctx context.Context, workers, groups, per int,
	build func(sweep *obs.Span, g, workers int) (T, error),
	cell func(sweep *obs.Span, i int, v T, inner int) error) error {
	cells := groups * per
	if cells <= 0 {
		return ctx.Err()
	}
	pool, span := openSweep(ctx, workers, cells)
	defer span.End()
	inner := innerWorkers(workers, pool)
	builders := innerWorkers(workers, sweepPool(workers, groups))
	gs := newGroupSlots(groups, per, func(sweep *obs.Span, g int) (T, error) {
		return build(sweep, g, builders)
	})
	tasks := groupTasks(groups, per, min(pool-1, 1))
	return runTasks(ctx, pool, len(tasks), func(t int) error {
		i := tasks[t]
		if i < 0 {
			gs.claim(span, ^i)
			return nil
		}
		v, err := gs.get(span, i/per)
		if err != nil {
			return err
		}
		return cell(span, i, v, inner)
	})
}

// groupTasks lays out a group sweep's tasks in the order the cursor
// hands them out, a cell as its index and group g's build as ^g: the
// first `ahead` builds, then for each group the build `ahead` groups
// later, if any, and the group's cells. With ahead = 1 that is build
// 0, build 1, the cells of group 0, build 2, the cells of group 1, ...,
// the cells of the last group; with ahead = 0 each build comes right
// before its own cells. Cells keep their index order, so the lowest
// failing task is the lowest failing cell.
func groupTasks(groups, per, ahead int) []int {
	tasks := make([]int, 0, groups*(per+1))
	for g := 0; g < min(ahead, groups); g++ {
		tasks = append(tasks, ^g)
	}
	for g := 0; g < groups; g++ {
		if h := g + ahead; h < groups {
			tasks = append(tasks, ^h)
		}
		for i := g * per; i < (g+1)*per; i++ {
			tasks = append(tasks, i)
		}
	}
	return tasks
}

// groupSlots holds groupSweep's per-group artifacts, each shared
// read-only by the group's cells and built exactly once, by build(sweep,
// g), under the sweep span its cells share, on whichever worker claims
// it first: normally the one that takes the group's build task. In the
// priced sweeps an artifact is one trial's sampled particle set, as its
// keynav.Set skeleton, together with every plan its cells replay: the
// build records them (priceSweep's group build, and the radius sweep's
// one plan per radius), so a cell that gets its group never waits on a
// plan. A worker whose cell needs a group another worker is still
// building does not just block: it first builds the nearest later
// group nobody has started, then waits, which keeps a pool with more
// workers than the builds handed out ahead busy; the build task of a
// group claimed this way does nothing. It builds at most one group per
// wait, and a group built ahead keeps its error until its own cells
// take it. A slot drops its artifact once the group's last cell has
// taken it, so a sweep holds only the artifacts of the groups it has
// in flight or built ahead, plans included: the cells' assignments
// keep them alive until they finish.
type groupSlots[T any] struct {
	build func(sweep *obs.Span, g int) (T, error)
	slots []groupSlot[T]
}

type groupSlot[T any] struct {
	started atomic.Bool
	done    chan struct{} // closed once the build has returned or panicked
	v       T
	err     error
	left    atomic.Int32 // cells yet to take the artifact
}

// newGroupSlots returns the slots of `groups` groups of `cells` cells
// each, built by build.
func newGroupSlots[T any](groups, cells int, build func(sweep *obs.Span, g int) (T, error)) *groupSlots[T] {
	gs := &groupSlots[T]{build: build, slots: make([]groupSlot[T], groups)}
	for i := range gs.slots {
		gs.slots[i].done = make(chan struct{})
		gs.slots[i].left.Store(int32(cells))
	}
	return gs
}

// get returns group g's artifact, building it under the cell's sweep
// span if no worker has claimed it yet. Each of the group's cells calls
// it exactly once.
func (gs *groupSlots[T]) get(sweep *obs.Span, g int) (T, error) {
	s := &gs.slots[g]
	if !gs.claim(sweep, g) {
		select {
		case <-s.done:
		default:
			// Another worker is building g: build the nearest later
			// group nobody has started meanwhile, then wait.
			for h := g + 1; h < len(gs.slots); h++ {
				if gs.claim(sweep, h) {
					break
				}
			}
			<-s.done
		}
	}
	v, err := s.v, s.err
	if s.left.Add(-1) == 0 {
		var zero T
		s.v = zero
	}
	return v, err
}

// claim builds group g if no worker has started it, and reports
// whether it did. A build that panics leaves the slot failed, so the
// cells waiting on it return an error while the panic travels on.
func (gs *groupSlots[T]) claim(sweep *obs.Span, g int) bool {
	s := &gs.slots[g]
	if !s.started.CompareAndSwap(false, true) {
		return false
	}
	defer close(s.done)
	s.err = fmt.Errorf("experiments: building group %d panicked", g)
	s.v, s.err = gs.build(sweep, g)
	return true
}
