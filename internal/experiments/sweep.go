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
// worker pool. Three properties are load-bearing:
//
//   - Determinism. Cells write into index-addressed output slots and
//     the runner reduces them in cell-index order — the same order the
//     old serial loops accumulated in — so the result bytes are
//     identical for every worker count (pinned by TestSweepEquality).
//   - Bounded cancellation. Workers check the context between cells,
//     so cancellation latency is at most one cell plus one group build
//     (a worker waiting on a group builds at most one later group
//     first; see groupSlots), regardless of how many trials or curves a
//     sweep spans.
//   - Deterministic errors. Cells are handed out in increasing index
//     order from an atomic cursor and only a cell's own error is ever
//     recorded; of the recorded errors the lowest cell index wins,
//     which reproduces the error the serial loop would have returned.
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
// semantics the in-process sweeps use. See runCells for the contract.
func RunCells(ctx context.Context, workers, cells int, run func(cell int) error) error {
	return runCells(ctx, workers, cells, run)
}

// runCells executes cells 0..cells-1 on a pool of `workers` goroutines
// (use sweepPool to size it). run must be safe for concurrent calls on
// distinct cell indices and must write its output only to slots owned
// by its cell. The context is checked before every cell, bounding
// cancellation latency to one cell; a cancelled context yields
// ctx.Err() unless a cell failed first. On failure the sweep stops
// early and the error of the lowest failing cell index is returned. A
// cell that panics on a pool worker stops the sweep too, and the first
// such panic is re-raised on the caller once every worker has returned.
func runCells(ctx context.Context, workers, cells int, run func(cell int) error) error {
	if cells <= 0 {
		return ctx.Err()
	}
	sweepCellsRun.Add(uint64(cells))
	sweepWorkersGauge.Set(float64(workers))
	span := obs.StartSpan("sweep")
	defer span.End()
	span.Annotate("cells", strconv.Itoa(cells))
	span.Annotate("workers", strconv.Itoa(workers))
	if workers <= 1 {
		for i := 0; i < cells; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(i); err != nil {
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
		failCell = -1
		failErr  error
	)
	var guard panics.Guard
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard.Recover()
			detach := span.Attach()
			defer detach()
			for {
				i := int(next.Add(1)) - 1
				if i >= cells {
					return
				}
				if sctx.Err() != nil || guard.Stopped() {
					return
				}
				if err := run(i); err != nil {
					// Cells never return context errors themselves (the
					// scheduler owns all ctx checks), so every recorded
					// error is a real cell failure; the monotone cursor
					// guarantees the serial loop would have hit the
					// lowest recorded index first.
					mu.Lock()
					if failCell == -1 || i < failCell {
						failCell, failErr = i, err
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
	if failCell != -1 {
		return failErr
	}
	return ctx.Err()
}

// groupSlots holds a sweep's per-group artifacts (one trial's sampled
// particle set, as its keynav.Set skeleton), each shared read-only by
// the group's cells and built exactly once, by build(g), on whichever
// worker first needs it. A worker that needs a group another worker is
// still building does not just block: it first builds the nearest
// later group nobody has started, then waits. It builds at most one
// group per wait, so a waiting worker holds at most one group ahead,
// and a group built ahead keeps its error until its own cells take it.
// A slot drops its artifact once the group's last cell has taken it,
// so a sweep holds only the artifacts of the groups it has in flight
// or built ahead: the cells' assignments keep them alive until they
// finish.
type groupSlots[T any] struct {
	build func(g int) (T, error)
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
func newGroupSlots[T any](groups, cells int, build func(g int) (T, error)) *groupSlots[T] {
	gs := &groupSlots[T]{build: build, slots: make([]groupSlot[T], groups)}
	for i := range gs.slots {
		gs.slots[i].done = make(chan struct{})
		gs.slots[i].left.Store(int32(cells))
	}
	return gs
}

// get returns group g's artifact, building it on the first call. Each
// of the group's cells calls it exactly once.
func (gs *groupSlots[T]) get(g int) (T, error) {
	s := &gs.slots[g]
	if !gs.claim(g) {
		select {
		case <-s.done:
		default:
			// Another worker is building g: build the nearest later
			// group nobody has started meanwhile, then wait.
			for h := g + 1; h < len(gs.slots); h++ {
				if gs.claim(h) {
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
func (gs *groupSlots[T]) claim(g int) bool {
	s := &gs.slots[g]
	if !s.started.CompareAndSwap(false, true) {
		return false
	}
	defer close(s.done)
	s.err = fmt.Errorf("experiments: building group %d panicked", g)
	s.v, s.err = gs.build(g)
	return true
}
