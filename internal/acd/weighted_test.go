package acd

import (
	"math"
	"strings"
	"testing"
)

func TestWeightedAccumulator(t *testing.T) {
	var a WeightedAccumulator
	if a.ACD() != 0 {
		t.Error("empty weighted ACD != 0")
	}
	a.Add(2, 100) // 100 bytes over 2 hops
	a.Add(10, 1)  // 1 byte over 10 hops
	want := (2.0*100 + 10.0*1) / 101
	if math.Abs(a.ACD()-want) > 1e-12 {
		t.Errorf("weighted ACD = %f, want %f", a.ACD(), want)
	}
	if a.Events != 2 || a.Weight != 101 {
		t.Errorf("events=%d weight=%f", a.Events, a.Weight)
	}
	var b WeightedAccumulator
	b.Add(1, 9)
	a.Merge(b)
	if a.Events != 3 || a.Weight != 110 {
		t.Errorf("after merge: %+v", a)
	}
	if !strings.Contains(a.String(), "weighted acd") {
		t.Error("String missing label")
	}
}
