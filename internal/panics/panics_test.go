package panics

import (
	"strings"
	"sync"
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
