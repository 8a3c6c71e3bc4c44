package panics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGuardRepanicsFirst runs a pool whose workers all panic: the
// guard stops it and re-raises one worker's value with that worker's
// stack, and a *Worker re-raised through a second guard keeps its
// origin.
func TestGuardRepanicsFirst(t *testing.T) {
	run := func(g *Guard, fn func(i int)) (v any) {
		defer func() { v = recover() }()
		var wg sync.WaitGroup
		for i := range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer g.Recover()
				fn(i)
			}()
		}
		wg.Wait()
		g.Repanic()
		return nil
	}
	var inner Guard
	v := run(&inner, func(i int) { panic(i) })
	w, ok := v.(*Worker)
	if !ok || !inner.Stopped() || !strings.Contains(string(w.Stack), "TestGuardRepanicsFirst") {
		t.Fatalf("recovered %#v (stopped %v), want a *Worker with the worker's stack", v, inner.Stopped())
	}
	if n, ok := w.Value.(int); !ok || n < 0 || n > 2 {
		t.Errorf("value %v, want one worker's index", w.Value)
	}
	var outer Guard
	if got := run(&outer, func(int) { panic(w) }); got != w {
		t.Errorf("a re-raised *Worker became %#v", got)
	}
	var quiet Guard
	if got := run(&quiet, func(int) {}); got != nil || quiet.Stopped() {
		t.Errorf("a pool without panics re-panicked %#v", got)
	}
}

// TestParallel runs every task exactly once at several worker counts,
// and re-raises a task's panic on the caller as a *Worker, for the
// first task and for a later one.
func TestParallel(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var runs [20]atomic.Int32
		Parallel(workers, len(runs), func(w, task int) {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d of %d", w, workers)
			}
			runs[task].Add(1)
		})
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("%d workers: task %d ran %d times", workers, i, n)
			}
		}
	}
	for _, bad := range []int{0, 5} {
		var v any
		func() {
			defer func() { v = recover() }()
			Parallel(3, 8, func(w, task int) {
				if task == bad {
					panic(fmt.Sprintf("task %d boom", task))
				}
			})
		}()
		w, ok := v.(*Worker)
		if !ok || w.Value != fmt.Sprintf("task %d boom", bad) {
			t.Errorf("task %d: recovered %#v, want a *Worker of the task's panic", bad, v)
		}
	}
}
