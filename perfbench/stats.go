package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricName is the shape every metric name must have: letters,
// digits, '_', '.' and '-', starting with a letter or digit, at most
// 64 characters.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name can be used as a metric name.
func validMetricName(name string) bool { return metricName.MatchString(name) }

// minBeyond is how many samples must lie above a percentile before it
// is reported.
const minBeyond = 10

// tailPerMille lists the percentiles a timing may report, in per
// mille, lowest first.
var tailPerMille = []int{500, 900, 990, 999}

// rankAt returns the 1-based nearest rank of the pm-per-mille
// percentile among n samples.
func rankAt(n, pm int) int { return (pm*n + 999) / 1000 }

// beyond returns how many of n samples lie above the pm-per-mille
// percentile.
func beyond(n, pm int) int { return n - rankAt(n, pm) }

// highestPercentile returns the highest reportable percentile (per
// mille) for n samples: the highest one with at least minBeyond
// samples above it. ok is false when not even the median qualifies.
func highestPercentile(n int) (pm int, ok bool) {
	for _, q := range tailPerMille {
		if beyond(n, q) >= minBeyond {
			pm, ok = q, true
		}
	}
	return pm, ok
}

// percentile returns the nearest-rank pm-per-mille percentile of xs,
// or an error when fewer than minBeyond samples lie above it.
func percentile(xs []float64, pm int) (float64, error) {
	n := len(xs)
	if beyond(n, pm) < minBeyond {
		return 0, fmt.Errorf("percentile p%g needs %d samples above it, %d samples give %d",
			float64(pm)/10, minBeyond, n, beyond(n, pm))
	}
	s := sortedCopy(xs)
	return s[rankAt(n, pm)-1], nil
}

// median returns the median of xs (the mean of the middle two for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4) default),
// so spreads computed here match ones computed from the same values
// there. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := sortedCopy(xs)
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
