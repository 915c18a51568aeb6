package tsp_test

import (
	"fmt"

	"branchalign/internal/tsp"
)

// ExampleSolve finds the optimal directed tour of a small instance with
// the paper's multi-start iterated 3-opt protocol (small instances are
// solved exactly by dynamic programming).
func ExampleSolve() {
	// A cheap directed ring 0->1->2->3->0 hidden in an expensive clique:
	// every row defaults to 100, with its ring successor the exception.
	b := tsp.NewSparseBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddRow(100, []int{(i + 1) % 4}, []tsp.Cost{1})
	}
	m := b.Finish()
	res := tsp.Solve(m, tsp.SolveOptions{Seed: 1})
	res.Tour.RotateTo(0)
	fmt.Println(res.Tour, res.Cost, res.Exact)
	// Output: [0 1 2 3] 4 true
}

// ExampleHeldKarpBound bounds a directed instance from below; on this
// ring the bound is tight.
func ExampleHeldKarpBound() {
	b := tsp.NewSparseBuilder(5)
	for i := 0; i < 5; i++ {
		b.AddRow(50, []int{(i + 1) % 5}, []tsp.Cost{2})
	}
	m := b.Finish()
	res := tsp.HeldKarpBound(m, tsp.HeldKarpOptions{Iterations: 100})
	fmt.Printf("%.0f\n", res.Bound)
	// Output: 10
}

// ExampleAssignmentBound shows the appendix's failure mode for
// AP-based bounds: two cheap disjoint loops make the cycle-cover bound
// far below any tour.
func ExampleAssignmentBound() {
	b := tsp.NewSparseBuilder(4)
	for _, partner := range []int{1, 0, 3, 2} {
		b.AddRow(100, []int{partner}, []tsp.Cost{1})
	}
	m := b.Finish()
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
	b := tsp.NewSparseBuilder(len(rows))
	for i, row := range rows {
		var cols []int
		var vals []tsp.Cost
		for j, c := range row {
			if j != i && c != 7 {
				cols, vals = append(cols, j), append(vals, c)
			}
		}
		b.AddRow(7, cols, vals)
	}
	m := b.Finish()
	s := tsp.Symmetrize(m)
	dir := tsp.Tour{0, 1, 2}
	emb := s.FromDirected(dir)
	fmt.Println(tsp.CycleCost(m, dir), tsp.SymCycleCost(s, emb))
	// Output: 6 6
}
