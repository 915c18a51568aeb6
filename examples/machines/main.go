// Machines: the "other machine models" study the paper lists as future
// work. Runs the same benchmark under three penalty models (shallow
// pipeline, the paper's Alpha 21164, and a deep pipeline) and shows how
// the value of near-optimal alignment scales with mispredict cost.
//
//	go run ./examples/machines
package main

import (
	"context"
	"fmt"
	"log"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/machine"
)

func main() {
	b, err := bench.ByName("compress")
	if err != nil {
		log.Fatal(err)
	}
	mod, err := b.Compile()
	if err != nil {
		log.Fatal(err)
	}
	prof := interp.NewProfile(mod)
	if _, err := interp.Run(mod, b.DataSets[0].Make(), interp.Options{Profile: prof}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("compress.txt under three machine models:")
	fmt.Printf("%-12s %14s %14s %14s %10s %10s\n",
		"model", "original CP", "greedy CP", "tsp CP", "greedy rm%", "tsp rm%")
	for _, model := range machine.Models() {
		orig := align.Run(context.Background(), align.Original{}, mod, prof, model, align.RunOptions{}).Penalty
		greedy := align.Run(context.Background(), align.PettisHansen{}, mod, prof, model, align.RunOptions{}).Penalty
		tspCP := align.Run(context.Background(), align.NewTSP(1), mod, prof, model, align.RunOptions{}).Penalty
		fmt.Printf("%-12s %14d %14d %14d %9.1f%% %9.1f%%\n",
			model.Name, orig, greedy, tspCP,
			100*(1-float64(greedy)/float64(orig)),
			100*(1-float64(tspCP)/float64(orig)))
	}
	fmt.Println()
	fmt.Println("Deeper pipelines raise the stakes: the same layouts save more")
	fmt.Println("absolute cycles, and the gap between greedy and near-optimal")
	fmt.Println("alignment widens — the reduction itself is model-agnostic, only")
	fmt.Println("the edge costs change (Section 2.2's only assumption).")
}
