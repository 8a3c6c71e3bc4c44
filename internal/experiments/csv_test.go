package experiments

import (
	"context"
	"strings"
	"testing"
)

func countLines(s string) int {
	return len(strings.Split(strings.TrimSpace(s), "\n"))
}

func TestTable12CSV(t *testing.T) {
	res, err := RunTable12(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res[0].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	// Header + 16 combos x 2 families.
	if got := countLines(b.String()); got != 1+32 {
		t.Fatalf("%d lines", got)
	}
	if !strings.HasPrefix(b.String(), "distribution,family,proc_curve,particle_curve,acd\n") {
		t.Errorf("header: %q", strings.SplitN(b.String(), "\n", 2)[0])
	}
}

func TestFig5CSV(t *testing.T) {
	res, err := RunFig5(context.Background(), 1, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	// Header + 4 curves x 3 orders.
	if got := countLines(b.String()); got != 1+12 {
		t.Fatalf("%d lines", got)
	}
	if !strings.Contains(b.String(), "8,rowmajor,1,4.5") {
		t.Errorf("missing known rowmajor row:\n%s", b.String())
	}
}

func TestFig6And7CSV(t *testing.T) {
	p := testParams
	res6, err := RunFig6(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res6.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+6*4*2 {
		t.Fatalf("fig6: %d lines", got)
	}
	res7, err := RunFig7(context.Background(), p, []uint{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := res7.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4*2*2 {
		t.Fatalf("fig7: %d lines", got)
	}
}

func TestStudyCSVEmitters(t *testing.T) {
	var b strings.Builder

	mt, err := RunMeshTorus(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4 {
		t.Fatalf("meshtorus: %d lines", got)
	}

	b.Reset()
	ss, err := RunSizeSweep(context.Background(), testParams, []int{500, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4*2*2 {
		t.Fatalf("sizesweep: %d lines", got)
	}

	b.Reset()
	lb, err := RunLoadBalance(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4 {
		t.Fatalf("loadbalance: %d lines", got)
	}

	b.Reset()
	em, err := RunExecModel(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := em.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4 {
		t.Fatalf("execmodel: %d lines", got)
	}

	b.Reset()
	me, err := RunMetrics(context.Background(), MetricsConfig{
		Params: testParams, MetricOrder: 5, QuerySide: 4, QueryTrials: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := me.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4 {
		t.Fatalf("metrics: %d lines", got)
	}

	b.Reset()
	co, err := RunContention(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4*2 {
		t.Fatalf("contention: %d lines", got)
	}
}

func TestRemainingCSVEmitters(t *testing.T) {
	var b strings.Builder

	rs, err := RunRadiusSweep(context.Background(), testParams, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4*2 {
		t.Fatalf("radius: %d lines", got)
	}

	b.Reset()
	cl, err := RunClustering(context.Background(), 6, []uint32{2, 4}, 100, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4*2 {
		t.Fatalf("clustering: %d lines", got)
	}

	b.Reset()
	p := testParams
	p.Particles = 500
	dy, err := RunDynamic(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dy.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4*2*2 {
		t.Fatalf("dynamic: %d lines", got)
	}

	b.Reset()
	td := ThreeDDefault
	td.Particles = 500
	td.Order = 4
	td.ANNSOrder = 2
	t3, err := RunThreeD(context.Background(), td, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := t3.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := countLines(b.String()); got != 1+4 {
		t.Fatalf("threed: %d lines", got)
	}
}
