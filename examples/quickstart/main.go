// Quickstart: compile a small Mini-C program, profile it, align its
// basic blocks with the paper's TSP-based algorithm, and compare control
// penalties and simulated execution time against the original layout.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/lower"
	"branchalign/internal/machine"
	"branchalign/internal/minic"
	"branchalign/internal/pipe"
)

// A branchy little program: a prime sieve with an unusual block order
// (the hot inner loop's rare side is textually first, so the compiler
// order is poor — exactly what alignment fixes).
const src = `
global sieve[10000];

func countPrimes(limit) {
	var i;
	var count = 0;
	for (i = 2; i < limit; i = i + 1) { sieve[i] = 1; }
	for (i = 2; i < limit; i = i + 1) {
		if (sieve[i] == 0) {
			// Rare path: composite already crossed out.
			sieve[0] = sieve[0] + 1;
		} else {
			count = count + 1;
			var j;
			for (j = i + i; j < limit; j = j + i) { sieve[j] = 0; }
		}
	}
	return count;
}

func main(n) {
	var primes = countPrimes(n);
	out(primes);
	return primes;
}
`

func main() {
	// 1. Compile: Mini-C -> checked AST -> basic-block IR.
	prog, err := minic.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	info, err := minic.Check(prog)
	if err != nil {
		log.Fatal(err)
	}
	mod, err := lower.Program(info)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Profile: run the program on a training input, collecting CFG
	// edge frequencies (the paper's HALT instrumentation step).
	inputs := []interp.Input{interp.ScalarInput(8000)}
	prof := interp.NewProfile(mod)
	res, err := interp.Run(mod, inputs, interp.Options{Profile: prof})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primes below 8000: %d (%d dynamic branches profiled)\n\n", res.Ret, res.DynBranches())

	// 3. Align: original vs greedy (Pettis-Hansen) vs TSP-based.
	model := machine.Alpha21164()
	for _, a := range []align.Aligner{align.Original{}, align.PettisHansen{}, align.TSP{}} {
		l := align.Run(context.Background(), a, mod, prof, model, align.RunOptions{Seed: 1}).Layout
		cp := layout.ModulePenalty(mod, l, prof, model)

		// 4. Simulate execution under the layout (pipeline + I-cache).
		st, _, err := pipe.Run(mod, l, inputs, pipe.DefaultConfig(), interp.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s control penalty %8d cycles | simulated time %9d cycles (CPI %.3f, icache misses %d)\n",
			a.Name(), cp, st.Cycles, st.CPI(), st.CacheMisses)
	}

	// 5. Show the reordering the TSP aligner chose for the hot function.
	l := align.Run(context.Background(), align.TSP{}, mod, prof, model, align.RunOptions{Seed: 1}).Layout
	fi := mod.FuncIndex("countPrimes")
	fmt.Printf("\ncountPrimes block order: %v\n", l.Funcs[fi].Order)
	fmt.Println("(block 0 is the entry; compare with the original 0,1,2,... order)")
}
