// Toolchain: the separate-phase workflow a production integration would
// use — profile once, persist the profile, align later from the saved
// profile, inspect the laid-out pseudo-assembly, and persist the layout
// for the backend. Mirrors the paper's file-based pipeline between SUIF,
// HALT and the AT&T TSP solver.
//
//	go run ./examples/toolchain
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/lower"
	"branchalign/internal/machine"
	"branchalign/internal/minic"
	"branchalign/internal/opt"
)

const src = `
func collatzLen(x) {
	var steps = 0;
	while (x != 1) {
		if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
		steps = steps + 1;
	}
	return steps;
}

func main(n) {
	var i;
	var best = 0;
	for (i = 1; i <= n; i = i + 1) {
		var len = collatzLen(i);
		if (len > best) { best = len; out(i); }
	}
	return best;
}
`

func main() {
	// Phase 1: compile and clean up the CFG (what SUIF would hand the
	// backend).
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
	st := opt.Module(mod)
	fmt.Printf("compiled + cleaned: %d edges threaded, %d blocks merged\n",
		st.ThreadedEdges, st.MergedBlocks)

	// Phase 2: instrumented run; persist the profile (HALT's output).
	prof := interp.NewProfile(mod)
	if _, err := interp.Run(mod, []interp.Input{interp.ScalarInput(3000)}, interp.Options{Profile: prof}); err != nil {
		log.Fatal(err)
	}
	var profileFile bytes.Buffer
	if err := prof.WriteJSON(&profileFile); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile serialized: %d bytes\n", profileFile.Len())

	// Phase 3: a later process loads the profile and aligns (the TSP
	// solver step).
	loaded, err := interp.ReadProfileJSON(&profileFile, mod)
	if err != nil {
		log.Fatal(err)
	}
	model := machine.Alpha21164()
	aligner := align.NewTSP(1)
	lay := align.Run(context.Background(), aligner, mod, loaded, model, align.RunOptions{}).Layout

	before := align.Run(context.Background(), align.Original{}, mod, loaded, model, align.RunOptions{}).Penalty
	after := layout.ModulePenalty(mod, lay, loaded, model)
	met := layout.ModuleMetrics(mod, lay, loaded)
	fmt.Printf("penalty %d -> %d cycles; %.1f%% of transfers now fall through\n",
		before, after, 100*met.FallthroughRate())

	// Phase 4: emit the laid-out pseudo-assembly for the hot function
	// (what the backend would encode) and persist the layout.
	fi := mod.FuncIndex("collatzLen")
	pf := layout.PlaceFunc(mod.Funcs[fi], lay.Funcs[fi], 0)
	fmt.Println("\nlaid-out collatzLen:")
	fmt.Print(layout.Listing(mod.Funcs[fi], lay.Funcs[fi], pf))

	var layoutFile bytes.Buffer
	if err := lay.WriteJSON(&layoutFile); err != nil {
		log.Fatal(err)
	}
	if _, err := layout.ReadLayoutJSON(&layoutFile, mod); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlayout serialized and re-validated: %d bytes\n", layoutFile.Len())
}
