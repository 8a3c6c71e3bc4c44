// Package panics carries a panic from a worker goroutine to the
// goroutine that waits for the worker's pool. A panic on a spawned
// goroutine ends the process whatever its caller recovers; a pool that
// recovers each worker's panic, stops, and re-raises the first one
// after its Wait hands it to the caller's own recover instead (the
// daemon's compute goroutine turns it into a 500). Parallel is that
// pool over a list of tasks; Guard serves pools with a loop of their
// own.
package panics

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Worker is the value a pool re-panics with: the first worker panic's
// value and the stack of the goroutine it happened on.
type Worker struct {
	Value any
	Stack []byte
}

func (w *Worker) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", w.Value, w.Stack)
}

// Guard collects the first panic of a pool's workers. The zero value
// is ready to use.
type Guard struct {
	stopped atomic.Bool
	once    sync.Once
	first   *Worker
}

// Recover must be deferred directly by each worker. It recovers the
// worker's panic, keeps it if it is the pool's first, and stops the
// pool. A panic that is already a *Worker, re-raised by a nested pool,
// is kept as it is, with the stack of its origin.
func (g *Guard) Recover() {
	v := recover()
	if v == nil {
		return
	}
	g.stopped.Store(true)
	g.once.Do(func() {
		w, ok := v.(*Worker)
		if !ok {
			w = &Worker{Value: v, Stack: debug.Stack()}
		}
		g.first = w
	})
}

// Stopped reports whether a worker has panicked. Workers check it
// between tasks and return once it is set.
func (g *Guard) Stopped() bool { return g.stopped.Load() }

// Repanic re-raises the first recovered panic, if any, on the calling
// goroutine. Call it after every worker has returned.
func (g *Guard) Repanic() {
	if g.first != nil {
		panic(g.first)
	}
}

// Parallel runs tasks [0, n) on workers workers that pull task indices
// from a shared cursor; run receives the worker index with the task.
// Worker 0 is the calling goroutine, so one worker spawns nothing. The
// first worker panic stops the pool and is re-raised on the caller
// once every worker has returned.
func Parallel(workers, n int, run func(w, task int)) {
	var next atomic.Int64
	var guard Guard
	work := func(w int) {
		defer guard.Recover()
		for !guard.Stopped() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			run(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	guard.Repanic()
}
