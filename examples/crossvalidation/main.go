// Crossvalidation: reproduce the paper's Section 4.2 methodology on one
// benchmark: train the layout on one input, evaluate it on another, and
// watch the benefit dilute without changing the ranking of the
// algorithms. Also demonstrates why a too-short training run (xli.ne)
// makes a poor trainer.
//
//	go run ./examples/crossvalidation
package main

import (
	"context"
	"fmt"
	"log"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

func main() {
	b, err := bench.ByName("xli")
	if err != nil {
		log.Fatal(err)
	}
	mod, err := b.Compile()
	if err != nil {
		log.Fatal(err)
	}
	model := machine.Alpha21164()

	// Profile both data sets: q7 (long-running queens search) and ne
	// (tiny Newton's-method run).
	profiles := map[string]*interp.Profile{}
	for i := range b.DataSets {
		ds := &b.DataSets[i]
		p := interp.NewProfile(mod)
		res, err := interp.Run(mod, ds.Make(), interp.Options{Profile: p})
		if err != nil {
			log.Fatal(err)
		}
		profiles[ds.Name] = p
		fmt.Printf("profiled xli.%s: %8d dynamic branches\n", ds.Name, res.DynBranches())
	}
	fmt.Println()

	aligners := []align.Aligner{align.PettisHansen{}, align.NewTSP(1)}
	for _, testName := range []string{"q7", "ne"} {
		testProf := profiles[testName]
		origCP := align.Run(context.Background(), align.Original{}, mod, testProf, model, align.RunOptions{}).Penalty
		fmt.Printf("evaluating on xli.%s (original control penalty: %d cycles)\n", testName, origCP)
		for _, a := range aligners {
			for _, trainName := range []string{"q7", "ne"} {
				l := align.Run(context.Background(), a, mod, profiles[trainName], model, align.RunOptions{}).Layout
				cp := layout.ModulePenalty(mod, l, testProf, model)
				kind := "self "
				if trainName != testName {
					kind = "cross"
				}
				fmt.Printf("  %-7s trained on %-2s (%s): penalty %8d (%.3f of original, removes %4.1f%%)\n",
					a.Name(), trainName, kind, cp,
					float64(cp)/float64(origCP), 100*(1-float64(cp)/float64(origCP)))
			}
		}
		fmt.Println()
	}
	fmt.Println("Note the asymmetry the paper reports: training on the tiny ne run")
	fmt.Println("generalizes poorly to q7, while training on q7 transfers well to ne.")
}
