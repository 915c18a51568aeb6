package tsp_test

import (
	"fmt"

	"branchalign/internal/tsp"
)

// ExampleSolve finds the optimal directed tour of a small instance with
// the paper's multi-start iterated 3-opt protocol (small instances are
// solved exactly by dynamic programming).
func ExampleSolve() {
	// A cheap directed ring 0->1->2->3->0 hidden in an expensive clique.
	m := tsp.NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				m.Set(i, j, 100)
			}
		}
	}
	for i := 0; i < 4; i++ {
		m.Set(i, (i+1)%4, 1)
	}
	res := tsp.Solve(m, tsp.PaperSolveOptions(1))
	res.Tour.RotateTo(0)
	fmt.Println(res.Tour, res.Cost, res.Exact)
	// Output: [0 1 2 3] 4 true
}

// ExampleHeldKarpBound bounds a directed instance from below; on this
// ring the bound is tight.
func ExampleHeldKarpBound() {
	m := tsp.NewMatrix(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				m.Set(i, j, 50)
			}
		}
	}
	for i := 0; i < 5; i++ {
		m.Set(i, (i+1)%5, 2)
	}
	res := tsp.HeldKarpBound(m, tsp.HeldKarpOptions{UpperBound: 10})
	fmt.Printf("%.0f\n", res.Bound)
	// Output: 10
}

// ExampleAssignmentBound shows the appendix's failure mode for
// AP-based bounds: two cheap disjoint loops make the cycle-cover bound
// far below any tour.
func ExampleAssignmentBound() {
	m := tsp.NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				m.Set(i, j, 100)
			}
		}
	}
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(2, 3, 1)
	m.Set(3, 2, 1)
	_, opt := tsp.SolveExact(m)
	fmt.Println(tsp.AssignmentBound(m), opt)
	// Output: 4 202
}

// ExampleSymmetrize demonstrates the 2-city transformation the paper
// uses: a directed tour embeds at equal cost.
func ExampleSymmetrize() {
	rows := [][]tsp.Cost{
		{0, 1, 7},
		{7, 0, 2},
		{3, 7, 0},
	}
	m := tsp.NewMatrix(len(rows))
	for i, row := range rows {
		for j, c := range row {
			m.Set(i, j, c)
		}
	}
	s := tsp.Symmetrize(m)
	dir := tsp.Tour{0, 1, 2}
	emb := s.FromDirected(dir)
	fmt.Println(tsp.CycleCost(m, dir), tsp.SymCycleCost(s, emb))
	// Output: 6 6
}
