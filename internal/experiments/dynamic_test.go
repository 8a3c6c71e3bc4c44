package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestRunDynamic(t *testing.T) {
	p := testParams
	p.Particles = 2000
	res, err := RunDynamic(context.Background(), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 4 || len(res.Curves) != 4 {
		t.Fatalf("bad shape: %d steps, %d curves", len(res.Steps), len(res.Curves))
	}
	// At step 0 the two policies are identical by construction.
	for c := range res.Curves {
		if res.Static[c][0] != res.Reorder[c][0] {
			t.Fatalf("%s: step-0 static %f != reorder %f",
				res.Curves[c], res.Static[c][0], res.Reorder[c][0])
		}
	}
	// The paper's observation: the static assignment stays competitive
	// — the ACD under the frozen ordering never blows up relative to
	// the freshly reordered one (small drift, locality mostly kept).
	for c := range res.Curves {
		for s := range res.Steps {
			if res.Static[c][s] > 2*res.Reorder[c][s]+1 {
				t.Errorf("%s step %d: static ACD %f far above reorder %f",
					res.Curves[c], s, res.Static[c][s], res.Reorder[c][s])
			}
		}
	}
	// And the relative curve ordering is unchanged by drift: hilbert
	// stays below rowmajor under both policies at every step.
	const hilbert, rowmajor = 0, 3
	for s := range res.Steps {
		if res.Static[hilbert][s] >= res.Static[rowmajor][s] {
			t.Errorf("step %d static: hilbert %f >= rowmajor %f",
				s, res.Static[hilbert][s], res.Static[rowmajor][s])
		}
		if res.Reorder[hilbert][s] >= res.Reorder[rowmajor][s] {
			t.Errorf("step %d reorder: hilbert %f >= rowmajor %f",
				s, res.Reorder[hilbert][s], res.Reorder[rowmajor][s])
		}
	}
	if _, err := RunDynamic(context.Background(), p, 0); err == nil {
		t.Error("steps=0 accepted")
	}
	var b strings.Builder
	st, re := res.SeriesTables()
	if err := st.Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := re.Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestRunDynamicDeterministic(t *testing.T) {
	p := testParams
	p.Particles = 800
	a, err := RunDynamic(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDynamic(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Curves {
		for s := range a.Steps {
			if a.Static[c][s] != b.Static[c][s] || a.Reorder[c][s] != b.Reorder[c][s] {
				t.Fatal("RunDynamic not deterministic")
			}
		}
	}
}

func TestRunThreeD(t *testing.T) {
	p := ThreeDDefault
	p.Particles = 3000
	p.Order = 5
	p.ANNSOrder = 3
	res, err := RunThreeD(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 4 {
		t.Fatalf("curves %v", res.Curves)
	}
	// The 2D headline carries to 3D: hilbert3d beats rowmajor3d on
	// both families.
	idx := map[string]int{}
	for i, n := range res.Curves {
		idx[n] = i
	}
	if res.NFI[idx["hilbert3d"]] >= res.NFI[idx["rowmajor3d"]] {
		t.Errorf("3D NFI: hilbert %f >= rowmajor %f",
			res.NFI[idx["hilbert3d"]], res.NFI[idx["rowmajor3d"]])
	}
	if res.FFI[idx["hilbert3d"]] >= res.FFI[idx["rowmajor3d"]] {
		t.Errorf("3D FFI: hilbert %f >= rowmajor %f",
			res.FFI[idx["hilbert3d"]], res.FFI[idx["rowmajor3d"]])
	}
	// The ANNS finding also carries: morton3d beats hilbert3d and
	// gray3d.
	if res.ANNS[idx["morton3d"]] >= res.ANNS[idx["hilbert3d"]] ||
		res.ANNS[idx["morton3d"]] >= res.ANNS[idx["gray3d"]] {
		t.Errorf("3D ANNS ordering unexpected: %v", res.ANNS)
	}
	var b strings.Builder
	if err := res.Matrix().Render(&b); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Particles = 0
	if _, err := RunThreeD(context.Background(), bad, 0); err == nil {
		t.Error("bad 3D params accepted")
	}
	bad = p
	bad.Particles = 1 << 30
	if _, err := RunThreeD(context.Background(), bad, 0); err == nil {
		t.Error("overfull 3D grid accepted")
	}
}
