// Lowerbounds: build branch-alignment DTSP instances and compare the
// three ways this repository reasons about optimality: the
// assignment-problem bound, the Held-Karp bound, the exact DP optimum
// (small instances), and the iterated-3-Opt tour. Reproduces, in
// miniature, the paper's appendix analysis of why Held-Karp is the right
// bound for these instances.
//
//	go run ./examples/lowerbounds
package main

import (
	"fmt"
	"log"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
)

func main() {
	model := machine.Alpha21164()

	// Instances from a real benchmark.
	b, err := bench.ByName("espresso")
	if err != nil {
		log.Fatal(err)
	}
	mod, err := b.Compile()
	if err != nil {
		log.Fatal(err)
	}
	prof := interp.NewProfile(mod)
	if _, err := interp.Run(mod, b.DataSets[1].Make(), interp.Options{Profile: prof}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-procedure DTSP instances of espresso.tl:")
	fmt.Printf("%-14s %7s %10s %10s %10s %10s\n", "func", "cities", "AP", "HK", "3-opt", "exact")
	for fi, f := range mod.Funcs {
		n := len(f.Blocks)
		if n < 3 {
			continue
		}
		mat := align.BuildSparseMatrix(f, prof.Funcs[fi], model, nil)
		ap := tsp.AssignmentBound(mat)
		res := tsp.Solve(mat, tsp.SolveOptions{Seed: 1})
		hk := tsp.HeldKarpBound(mat, tsp.HeldKarpOptions{Iterations: 2000})
		exact := "-"
		if n <= tsp.ExactMaxCities {
			_, opt := tsp.SolveExact(mat)
			exact = fmt.Sprintf("%d", opt)
		}
		fmt.Printf("%-14s %7d %10d %10.0f %10d %10s\n", f.Name, n, ap, hk.Bound, res.Cost, exact)
	}

	fmt.Println()
	fmt.Println("The AP bound collapses on instances whose cheapest cycle cover is")
	fmt.Println("not a single tour (loop-heavy procedures), while Held-Karp stays")
	fmt.Println("within a fraction of a percent — the paper's appendix argument for")
	fmt.Println("choosing iterated 3-Opt + HK over AP-patching DTSP codes.")

	// A synthetic pathological case: two hot disjoint loops. The AP bound
	// is the pair of 2-cycles; no tour can match it.
	fmt.Println()
	// Every row costs 1000 except the edge to its loop partner.
	sb := tsp.NewSparseBuilder(4)
	for _, partner := range []int{1, 0, 3, 2} {
		sb.AddRow(1000, []int{partner}, []tsp.Cost{1})
	}
	m := sb.Finish()
	_, opt := tsp.SolveExact(m)
	fmt.Printf("two-disjoint-loops instance: AP bound %d, true optimum %d (gap %.0fx)\n",
		tsp.AssignmentBound(m), opt, float64(opt)/float64(tsp.AssignmentBound(m)))
}
