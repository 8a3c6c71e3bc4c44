package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Compare mode reads two result sets — JSON-lines files written with
// --record, one from the parent commit and one from the change, with
// runs interleaved — and prints, for every metric of every workload,
// each side's median and quartiles, the change's win fraction over the
// pairs, and a verdict:
//
//   - improved: the change wins at least 9/10 of the pairs (ties count
//     for neither) and the medians differ, in the better direction, by
//     more than the parent's own quartile spread; or every change run
//     reads better than every parent run;
//   - unresolved: not improved, and the parent's spread (quartile
//     distance over median) is wider than the metric's bound, or the
//     metric has no bound and the change did not lose 9/10 of the
//     pairs by more than the spread;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound (metrics without a bound: the mirror image of
//     improved);
//   - within bound: otherwise.
//
// Bounds and better directions come from BENCHMARK.json.

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [--bench BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	bench, err := readBench(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	rows := compareSets(bench, parent, change)
	fmt.Fprintf(stdout, "%-9s %-28s %28s %28s %5s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	regressed := false
	for _, row := range rows {
		fmt.Fprintf(stdout, "%-9s %-28s %28s %28s %5.2f  %s\n", row.workload, row.metric,
			fmtQuartiles(row.parent), fmtQuartiles(row.change), row.wins, row.verdict)
		if row.verdict == verdictRegressed && row.bound > 0 {
			regressed = true
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func readBench(path string) (benchFile, error) {
	var b benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, fmt.Errorf("reading benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("decoding %s: %w", path, err)
	}
	return b, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading result set: %w", err)
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return out, nil
}

const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// sideStats are one side's quartiles of a metric.
type sideStats struct {
	q1, med, q3 float64
}

// compareRow is one metric on one workload.
type compareRow struct {
	workload, metric string
	parent, change   sideStats
	wins             float64
	bound            float64
	verdict          string
}

// compareSets compares every metric of every workload present on both
// sides. Pairs match the i-th parent run with the i-th change run of
// the same workload that reports the metric, in file order.
func compareSets(bench benchFile, parent, change []record) []compareRow {
	var rows []compareRow
	for _, group := range [][]benchMetric{bench.EndToEnd, bench.PerLayer} {
		for _, m := range group {
			for _, w := range workloadNames(parent) {
				pv, cv := metricValues(parent, w, m.Name), metricValues(change, w, m.Name)
				if len(pv) < 2 || len(cv) < 2 {
					continue
				}
				rows = append(rows, compareMetric(w, m, pv, cv))
			}
		}
	}
	return rows
}

func workloadNames(recs []record) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range recs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	sort.Strings(out)
	return out
}

func metricValues(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareMetric applies the verdict rules to one metric's values.
func compareMetric(workload string, m benchMetric, pv, cv []float64) compareRow {
	row := compareRow{workload: workload, metric: m.Name, bound: m.Bound, parent: stats(pv), change: stats(cv)}
	// better(a, b) reports whether a reads better than b.
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs := min(len(pv), len(cv))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(cv[i], pv[i]):
			wins++
		case better(pv[i], cv[i]):
			losses++
		}
	}
	row.wins = float64(wins) / float64(pairs)
	spread := row.parent.q3 - row.parent.q1
	diff := math.Abs(row.change.med - row.parent.med)
	allBetter := better(minOrMax(cv, m.Better == "higher", true), minOrMax(pv, m.Better == "higher", false))
	// worse is how much worse the change's median reads, as a share of
	// the parent's median (negative when it reads better).
	worse := (row.change.med - row.parent.med) / math.Abs(row.parent.med)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case allBetter || (10*wins >= 9*pairs && diff > spread && better(row.change.med, row.parent.med)):
		row.verdict = verdictImproved
	case m.Bound > 0 && spread/math.Abs(row.parent.med) > m.Bound:
		row.verdict = verdictUnresolved
	case m.Bound > 0 && worse > m.Bound:
		row.verdict = verdictRegressed
	case m.Bound > 0:
		row.verdict = verdictWithin
	case 10*losses >= 9*pairs && diff > spread:
		row.verdict = verdictRegressed
	default:
		row.verdict = verdictUnresolved
	}
	return row
}

// minOrMax returns the worst value of xs when worst is set and the best
// otherwise, where higher values are better when higherBetter is set.
func minOrMax(xs []float64, higherBetter, worst bool) float64 {
	s := sortedCopy(xs)
	if higherBetter == worst {
		return s[0]
	}
	return s[len(s)-1]
}

func stats(xs []float64) sideStats {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return sideStats{q1: math.NaN(), med: median(xs), q3: math.NaN()}
	}
	return sideStats{q1: q1, med: q2, q3: q3}
}

func fmtQuartiles(s sideStats) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3)
}
