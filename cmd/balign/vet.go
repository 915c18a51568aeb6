package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/check"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
	"branchalign/internal/staticprof"
)

// runVet implements `balign vet`: compile and profile a program (or every
// bundled benchmark with -all), then audit every pipeline artifact with
// the invariant checker — IR structure and dataflow lints, profile flow
// conservation, layout permutation validity, patch equivalence, placement
// and cost bookkeeping, and the AP ≤ HK ≤ tour bound chain — for each
// selected aligner's layout. Returns the process exit code: 0 when no
// invariant is broken (warnings allowed), 1 otherwise.
func runVet(args []string) int {
	fs := flag.NewFlagSet("balign vet", flag.ExitOnError)
	var (
		srcPath   = fs.String("src", "", "Mini-C source file to vet")
		data      = fs.String("data", "", "comma-separated ints for the entry array input")
		scalarN   = fs.Int64("n", -1, "entry scalar argument (default: array length)")
		benchName = fs.String("bench", "", "use a built-in benchmark instead of -src")
		dataset   = fs.String("dataset", "", "benchmark data set name (with -bench)")
		all       = fs.Bool("all", false, "vet every bundled benchmark (overrides -src/-bench)")
		alignSel  = fs.String("aligner", "all", "aligner whose layouts to vet: original, greedy, calder-grunwald, ap-patch, tsp, exttsp, all")
		modelSel  = fs.String("model", "alpha21164", "machine model: alpha21164, shallow, deep")
		seed      = fs.Int64("seed", 1, "solver seed")
		bounds    = fs.Bool("bounds", true, "include the AP ≤ HK ≤ tour bound-chain check")
		hkIters   = fs.Int("hk-iters", 200, "Held-Karp subgradient iterations for -bounds")
		verbose   = fs.Bool("v", false, "print warnings (lints) in addition to errors")
	)
	fs.Parse(args)

	model, err := pickModel(*modelSel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "balign vet:", err)
		return 1
	}
	aligners, err := pickVetAligners(*alignSel, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "balign vet:", err)
		return 1
	}
	bo := check.BoundsOptions{HKIterations: *hkIters}

	exit := 0
	if *all {
		for _, b := range bench.All() {
			mod, err := b.Compile()
			if err != nil {
				fmt.Fprintf(os.Stderr, "balign vet: %s: %v\n", b.Name, err)
				return 1
			}
			// The smaller data set keeps -all fast; the audited invariants
			// are input-independent.
			ds := b.DataSets[len(b.DataSets)-1]
			if !vetProgram(b.Name, mod, ds.Make(), aligners, model, *bounds, bo, *verbose) {
				exit = 1
			}
		}
		return exit
	}
	mod, inputs, err := loadProgram(*srcPath, *benchName, *dataset, *data, *scalarN)
	if err != nil {
		fmt.Fprintln(os.Stderr, "balign vet:", err)
		return 1
	}
	name := *benchName
	if name == "" {
		name = *srcPath
	}
	if !vetProgram(name, mod, inputs, aligners, model, *bounds, bo, *verbose) {
		exit = 1
	}
	return exit
}

// vetProgram profiles one module and audits it under every aligner's
// layout, printing findings; bounds adds the lower-bound chain, tuned by
// bo. It reports whether no invariant was broken.
func vetProgram(name string, mod *ir.Module, inputs []interp.Input, aligners []align.Aligner, model machine.Model, bounds bool, bo check.BoundsOptions, verbose bool) bool {
	prof := interp.NewProfile(mod)
	if _, err := interp.Run(mod, inputs, interp.Options{Profile: prof, MaxSteps: 1 << 31}); err != nil {
		fmt.Fprintf(os.Stderr, "balign vet: %s: profiling run failed: %v\n", name, err)
		return false
	}
	// Module structure, dataflow lints and flow conservation are
	// layout-independent: audit them once.
	base := check.Module(mod)
	base.Merge(check.Flow(mod, prof))
	// CFG-shape lints (unreachable blocks, irreducible loops, statically
	// infinite loops, cold-but-deep regions) plus the estimator
	// self-check: the static profile must satisfy flow conservation by
	// construction, so a violation here is an estimator bug, not a
	// program property.
	base.Merge(staticprof.Lint(mod))
	est, _ := staticprof.Estimate(mod)
	base.Merge(check.Flow(mod, est))
	ok := printVetReport(name, base, verbose)
	for _, a := range aligners {
		l := align.Run(context.Background(), a, mod, prof, model, align.RunOptions{}).Layout
		r := check.Layouts(mod, prof, l, model)
		if bounds {
			r.Merge(check.Bounds(mod, prof, l, model, bo))
		}
		ok = printVetReport(name+"/"+a.Name(), r, verbose) && ok
	}
	return ok
}

// printVetReport prints one report (errors always, warnings with -v) and
// reports whether it was violation-free.
func printVetReport(target string, r *check.Report, verbose bool) bool {
	for _, f := range r.Findings {
		if f.Severity == check.Error || verbose {
			fmt.Printf("%s: %s\n", target, f.String())
		}
	}
	if r.OK() {
		fmt.Printf("%s: ok (%d warnings)\n", target, r.Warnings())
		return true
	}
	fmt.Printf("%s: FAIL: %d invariant violation(s), %d warning(s)\n", target, r.Errors(), r.Warnings())
	return false
}

// pickVetAligners resolves -aligner for the vet subcommand. Unlike the
// experiment driver, "original" is a vettable layout here (the identity
// order still gets its patch, placement, cost and bound audits), and
// "all" includes it.
func pickVetAligners(sel string, seed int64) ([]align.Aligner, error) {
	switch sel {
	case "all":
		all, err := pickAligners("all", seed, 0)
		if err != nil {
			return nil, err
		}
		return append([]align.Aligner{align.Original{}}, all...), nil
	case "original":
		return []align.Aligner{align.Original{}}, nil
	}
	return pickAligners(sel, seed, 0)
}
