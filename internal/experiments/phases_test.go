package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sfcacd/internal/obs"
)

var updatePhases = flag.Bool("update", false, "rewrite testdata/phases.golden from this tree")

// TestPhaseTreesGolden pins every registry experiment's phase tree —
// each phase's path and call count, durations dropped — at one and at
// two workers, run under an explicit root as acdbench runs it, against
// testdata/phases.golden. Every phase must open under the parent its
// caller hands it: a phase that loses its parent drops out of the tree,
// and one opened under the wrong parent moves.
func TestPhaseTreesGolden(t *testing.T) {
	golden := filepath.Join("testdata", "phases.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var header []string
	for _, line := range strings.SplitAfter(string(want), "\n") {
		if !strings.HasPrefix(line, "#") {
			break
		}
		header = append(header, line)
	}
	for _, workers := range []int{1, 2} {
		var got strings.Builder
		for _, l := range header {
			got.WriteString(l)
		}
		for _, spec := range Registry() {
			p := registryTestParams
			p.Workers = workers
			tracer := obs.NewTracer()
			if _, err := spec.Run(obs.ContextWithSpan(context.Background(), tracer.Root()), spec.Resolve(p)); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			for _, line := range phaseLines(tracer.Take()) {
				fmt.Fprintf(&got, "%s %s\n", spec.Name, line)
			}
		}
		if *updatePhases && workers == 1 {
			if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			want = []byte(got.String())
		}
		if got.String() != string(want) {
			t.Errorf("workers=%d: phase trees differ from %s:\n%s", workers, golden, lineDiff(string(want), got.String()))
		}
	}
}

// phaseLines flattens a phase forest into "path calls" lines, sorted.
func phaseLines(phases []obs.PhaseSnapshot) []string {
	var out []string
	var walk func(prefix string, ps []obs.PhaseSnapshot)
	walk = func(prefix string, ps []obs.PhaseSnapshot) {
		for _, p := range ps {
			path := prefix + p.Name
			out = append(out, fmt.Sprintf("%s %d", path, p.Calls))
			walk(path+"/", p.Children)
		}
	}
	walk("", phases)
	sort.Strings(out)
	return out
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			fmt.Fprintf(&b, "- %s\n", l)
			count[l]--
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] < 0 {
			fmt.Fprintf(&b, "+ %s\n", l)
			count[l]++
		}
	}
	return b.String()
}
