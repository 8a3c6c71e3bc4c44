package sfcacd_test

import (
	"fmt"

	"sfcacd"
)

// ExampleAssign shows the paper's §IV pipeline: order particles along
// a curve, chunk them, distribute chunks to processors. Owners lists
// each input point's rank, in input order.
func ExampleAssign() {
	pts := []sfcacd.Point{
		sfcacd.Pt(0, 0), sfcacd.Pt(7, 7), sfcacd.Pt(1, 0), sfcacd.Pt(6, 7),
	}
	a, err := sfcacd.Assign(pts, sfcacd.Hilbert, 3, 2)
	if err != nil {
		panic(err)
	}
	for i, r := range a.Owners() {
		fmt.Printf("%v -> rank %d\n", pts[i], r)
	}
	// Output:
	// (0,0) -> rank 0
	// (7,7) -> rank 1
	// (1,0) -> rank 0
	// (6,7) -> rank 1
}

// ExampleNFI computes the near-field Average Communicated Distance of
// a fully occupied 2x2 grid on a bus: the worked example from the
// model's unit tests.
func ExampleNFI() {
	pts := []sfcacd.Point{
		sfcacd.Pt(0, 0), sfcacd.Pt(1, 0), sfcacd.Pt(0, 1), sfcacd.Pt(1, 1),
	}
	a, _ := sfcacd.Assign(pts, sfcacd.Hilbert, 1, 4)
	bus := sfcacd.NewBus(4)
	acc := sfcacd.NFI(a, bus, sfcacd.NFIOptions{Radius: 1})
	fmt.Printf("events=%d acd=%.3f\n", acc.Count, acc.ACD())
	// Output:
	// events=12 acd=1.667
}

// ExampleANNS reproduces the row-major closed form (side+1)/2 from
// Xu and Tirthapura's analysis.
func ExampleANNS() {
	res := sfcacd.ANNS(sfcacd.RowMajor, 3, sfcacd.ANNSOptions{Radius: 1})
	fmt.Printf("%.1f\n", res.Mean)
	// Output:
	// 4.5
}

// ExampleCurve_Index shows the Hilbert curve's order-1 visit sequence.
func ExampleCurve_Index() {
	for d := uint64(0); d < 4; d++ {
		fmt.Println(sfcacd.Hilbert.Point(1, d))
	}
	// Output:
	// (0,0)
	// (0,1)
	// (1,1)
	// (1,0)
}

// ExampleNewTorus demonstrates processor-order placement: with Hilbert
// placement consecutive ranks are physically adjacent.
func ExampleNewTorus() {
	torus := sfcacd.NewTorus(2, sfcacd.Hilbert) // 16 processors, 4x4
	fmt.Println(torus.Distance(0, 1), torus.Distance(0, 15))
	// Output:
	// 1 1
}

// ExampleBroadcast evaluates a §VII primitive in advance of any
// implementation work.
func ExampleBroadcast() {
	acc := sfcacd.Broadcast(sfcacd.NewHypercube(4), 0)
	fmt.Printf("%d sends, acd=%.0f\n", acc.Count, acc.ACD())
	// Output:
	// 15 sends, acd=1
}

// ExampleSolveDirect computes the mutual potential of two unit
// charges.
func ExampleSolveDirect() {
	sys := sfcacd.NBodySystem{
		Pos: []complex128{0.25 + 0.5i, 0.75 + 0.5i},
		Q:   []float64{1, 1},
	}
	res, _ := sfcacd.SolveDirect(sys, 1)
	fmt.Printf("%.4f\n", res.Potential[0])
	// Output:
	// -0.6931
}
