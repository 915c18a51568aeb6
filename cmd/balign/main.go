// Command balign is the branch-alignment driver: it compiles a Mini-C
// source file, profiles it on a training input, aligns its basic blocks
// with the selected algorithm, and reports control penalties (and
// optionally simulated execution time) under the resulting layout.
//
//	balign -src prog.mc -data "1,2,3,4" -aligner tsp -sim
//	balign -src prog.mc -bench compress -dataset txt   (use a built-in benchmark instead)
//	balign -bench xli -dataset q7 -aligner all -sim
//
// The `vet` subcommand runs the pipeline-wide invariant checker
// (internal/check) instead of the experiment driver:
//
//	balign vet -bench compress
//	balign vet -all -v
//
// The `report` subcommand renders per-function solver convergence tables
// (tour cost, Held-Karp bound, gap) from a live run or a recorded trace:
//
//	balign report -bench compress
//	balign report -in trace.ndjson
//	balign -bench compress -bound -trace - | balign report -in -
//
// With -trace, the main driver exports the full telemetry of the run —
// pipeline-stage spans, solver convergence series, counters — as NDJSON:
//
//	balign -bench compress -sim -bound -trace trace.ndjson
//
// The entry function must be main with signature (), (n) or (input[], n).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/cfganal"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/lower"
	"branchalign/internal/machine"
	"branchalign/internal/minic"
	"branchalign/internal/obs"
	"branchalign/internal/opt"
	"branchalign/internal/pipe"
	"branchalign/internal/staticprof"
	"branchalign/internal/stats"
	"branchalign/internal/tsp"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(runVet(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "report" {
		os.Exit(runReport(os.Args[2:]))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "balign:", err)
		os.Exit(1)
	}
}

// run is the main driver. Returning an error (rather than exiting
// in-place) lets the deferred trace flush below run on every exit path,
// so a failed run still leaves a complete, readable NDJSON trace.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("balign", flag.ExitOnError)
	var (
		srcPath   = fs.String("src", "", "Mini-C source file to align")
		data      = fs.String("data", "", "comma-separated ints for the entry array input")
		scalarN   = fs.Int64("n", -1, "entry scalar argument (default: array length)")
		benchName = fs.String("bench", "", "use a built-in benchmark instead of -src")
		dataset   = fs.String("dataset", "", "benchmark data set name (with -bench)")
		alignSel  = fs.String("aligner", "all", "aligner: original, greedy, calder-grunwald, ap-patch, tsp, exttsp, all")
		algSel    = fs.String("algorithm", "", "alias for -aligner, matching balignd's \"algorithm\" request field")
		modelSel  = fs.String("model", "alpha21164", "machine model: alpha21164, shallow, deep")
		seed      = fs.Int64("seed", 1, "solver seed")
		parallel  = fs.Int("parallel", 0, "TSP solver parallelism: max concurrent local-search runs per function (-1 = all CPUs); functions always fan out on all CPUs; results are bit-identical at every setting")
		sim       = fs.Bool("sim", false, "simulate execution time (pipeline + I-cache)")
		cacheKB   = fs.Int("cache-bytes", 0, "I-cache size in bytes for -sim (0 = default 512)")
		cacheWays = fs.Int("cache-ways", 0, "I-cache associativity for -sim (0 = default 2)")
		dynPred   = fs.Bool("dynpredict", false, "simulate a 2-bit dynamic predictor instead of static prediction")
		dump      = fs.Bool("dump", false, "dump the IR module")
		dotFunc   = fs.String("dot", "", "emit the CFG of the named function as Graphviz dot")
		showOrder = fs.Bool("orders", false, "print the block order of every function")
		bound     = fs.Bool("bound", false, "also compute the Held-Karp lower bound")
		optimize  = fs.Bool("opt", false, "run CFG cleanup (jump threading, block merging) before aligning")
		profMode  = fs.String("profile", "measured", "profile source: measured (run the program on its training input) or static (estimate edge frequencies from CFG structure, no execution)")
		profOut   = fs.String("profile-out", "", "write the training profile as JSON")
		profIn    = fs.String("profile-in", "", "read the training profile from JSON instead of running the program")
		layoutOut = fs.String("layout-out", "", "write the chosen aligner's layout as JSON (single -aligner only)")
		metrics   = fs.Bool("metrics", false, "report fall-through/taken/fixup transfer rates per aligner")
		listing   = fs.String("listing", "", "print the named function's laid-out pseudo-assembly per aligner")
		loops     = fs.Bool("loops", false, "report loop structure (dominators + natural loops) per function")
		tracePath = fs.String("trace", "", "export run telemetry (spans, convergence series, counters) as NDJSON (\"-\" streams to stdout, tables move to stderr)")
	)
	fs.Parse(args)
	if *algSel != "" {
		*alignSel = *algSel
	}
	ctx := context.Background()

	// Telemetry: a nil root span (no -trace) disables every obs call site
	// downstream at zero cost.
	var (
		root      *obs.Span
		traceT    *obs.Trace
		traceSink *obs.NDJSONSink
		traceFile *os.File
	)
	if *tracePath != "" {
		var w io.Writer
		if *tracePath == "-" {
			// The event stream owns stdout; move the human-readable
			// driver output to stderr so the NDJSON stays parseable:
			//   balign -bench compress -bound -trace - | balign report -in -
			w = os.Stdout
			os.Stdout = os.Stderr
		} else {
			f, cerr := os.Create(*tracePath)
			if cerr != nil {
				return cerr
			}
			traceFile = f
			w = f
		}
		traceSink = obs.NewNDJSONSink(w)
		traceT = obs.New(traceSink)
		root = traceT.Start("balign",
			obs.String("aligner", *alignSel),
			obs.String("model", *modelSel),
			obs.Int("seed", *seed))
		defer func() {
			root.End()
			if cerr := traceT.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if traceFile != nil {
				if cerr := traceFile.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
			if err == nil {
				fmt.Printf("wrote %d trace events to %s\n", traceSink.Count(), *tracePath)
			}
		}()
	}

	mod, inputs, err := loadProgram(*srcPath, *benchName, *dataset, *data, *scalarN)
	if err != nil {
		return err
	}
	model, err := machine.ByName(*modelSel)
	if err != nil {
		return err
	}
	if *optimize {
		st := opt.Module(mod)
		fmt.Printf("optimized: %d edges threaded, %d blocks merged, %d unreachable removed, %d branches folded\n",
			st.ThreadedEdges, st.MergedBlocks, st.UnreachableBlocks, st.FoldedBranches+st.CollapsedCondBrs)
	}
	if *dump {
		fmt.Print(mod.String())
	}

	var prof *interp.Profile
	if *profMode != "measured" && *profMode != "static" {
		return fmt.Errorf("unknown -profile %q (want measured or static)", *profMode)
	}
	if *profMode == "static" {
		if *profIn != "" {
			return fmt.Errorf("-profile=static conflicts with -profile-in: the estimate replaces any recorded profile")
		}
		psp := root.Child("estimate")
		var info *staticprof.Info
		prof, info = staticprof.Estimate(mod)
		psp.End(obs.Int("scale", info.Scale))
		fmt.Printf("estimated static profile: scale %d per entry, %d branch sites covered\n",
			info.Scale, prof.BranchSitesTouched(mod))
	} else if *profIn != "" {
		f, err := os.Open(*profIn)
		if err != nil {
			return err
		}
		prof, err = interp.ReadProfileJSON(f, mod)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded profile from %s (%d branch sites touched)\n", *profIn, prof.BranchSitesTouched(mod))
	} else {
		psp := root.Child("profile")
		var res interp.Result
		prof, res, err = profileProgram(mod, inputs)
		if err != nil {
			return err
		}
		psp.End(obs.Int("steps", res.Steps), obs.Int("dyn_branches", res.DynBranches()))
		fmt.Printf("profiled: %d IR instructions, %d dynamic branches, %d branch sites touched, ret=%d\n",
			res.Steps, res.DynBranches(), prof.BranchSitesTouched(mod), res.Ret)
	}
	if *profOut != "" {
		f, err := os.Create(*profOut)
		if err != nil {
			return err
		}
		if err := prof.WriteJSON(f); err != nil {
			return err
		}
		f.Close()
		fmt.Printf("wrote profile to %s\n", *profOut)
	}

	if *dotFunc != "" {
		fi := mod.FuncIndex(*dotFunc)
		if fi < 0 {
			return fmt.Errorf("no function %q", *dotFunc)
		}
		fmt.Print(mod.Funcs[fi].Dot(func(b, si int) (int64, bool) {
			return prof.Funcs[fi].EdgeCounts[b][si], true
		}))
	}

	if *loops {
		printLoops(mod, prof)
	}

	aligners, err := pickAligners(*alignSel)
	if err != nil {
		return err
	}

	origLayout := layout.Identity(mod, prof, model)
	origCP := layout.ModulePenalty(mod, origLayout, prof, model)
	var origCycles machine.Cost
	var trace *pipe.Trace
	simCfg := pipe.Config{Model: model, Cache: pipe.DefaultCache()}
	if *cacheKB > 0 {
		simCfg.Cache.SizeBytes = *cacheKB
	}
	if *cacheWays > 0 {
		simCfg.Cache.Ways = *cacheWays
	}
	if *dynPred {
		simCfg.Predictor = pipe.PredictorConfig{Kind: pipe.PredictTwoBit}
	}
	if *sim {
		rsp := root.Child("record")
		trace, _, err = pipe.Record(mod, inputs, interp.Options{MaxSteps: 1 << 31})
		if err != nil {
			return err
		}
		rsp.End(obs.Int("trace_events", int64(trace.Len())))
		ssp := root.Child("simulate", obs.String("aligner", "original"))
		cfg := simCfg
		cfg.Obs = ssp
		st := pipe.Replay(trace, mod, origLayout, cfg)
		ssp.End(obs.Int("cycles", int64(st.Cycles)))
		origCycles = st.Cycles
	}

	table := stats.NewTable("aligner", "control penalty", "normalized", "cycles", "time vs original")
	table.Rowf("original|%d|1.000|%s|1.0000", origCP, cyclesCell(*sim, origCycles))
	// The Held-Karp bound rides on the tsp run when there is one, so it
	// shares that run's matrices.
	hkOpts := tsp.HeldKarpOptions{Iterations: 3000}
	var boundRun *align.Result
	for _, a := range aligners {
		asp := root.Child("align", obs.String("aligner", a.Name()))
		o := align.RunOptions{Seed: *seed, Parallelism: *parallel, Obs: asp}
		if *bound && a.Name() == "tsp" {
			o.Bound = &hkOpts
		}
		run := align.Run(ctx, a, mod, prof, model, o)
		if o.Bound != nil {
			boundRun = run
		}
		l := run.Layout
		if err := l.Validate(mod); err != nil {
			return fmt.Errorf("%s produced an invalid layout: %w", a.Name(), err)
		}
		if *layoutOut != "" && len(aligners) == 1 {
			f, err := os.Create(*layoutOut)
			if err != nil {
				return err
			}
			if err := l.WriteJSON(f); err != nil {
				return err
			}
			f.Close()
			fmt.Printf("wrote %s layout to %s\n", a.Name(), *layoutOut)
		}
		cp := layout.ModulePenalty(mod, l, prof, model)
		asp.End(obs.Int("control_penalty", int64(cp)))
		cycleCell, timeCell := "-", "-"
		if *sim {
			ssp := root.Child("simulate", obs.String("aligner", a.Name()))
			cfg := simCfg
			cfg.Obs = ssp
			st := pipe.Replay(trace, mod, l, cfg)
			ssp.End(obs.Int("cycles", int64(st.Cycles)))
			cycleCell = fmt.Sprintf("%d", st.Cycles)
			timeCell = fmt.Sprintf("%.4f", float64(st.Cycles)/float64(origCycles))
		}
		table.Rowf("%s|%d|%.3f|%s|%s", a.Name(), cp, stats.Ratio(cp, origCP, 1), cycleCell, timeCell)
		if *metrics {
			met := layout.ModuleMetrics(mod, l, prof)
			fmt.Printf("  %s: %.1f%% fall-through (%d transfers, %d taken, %d via fixup)\n",
				a.Name(), 100*met.FallthroughRate(), met.Transfers, met.Taken, met.ViaFixup)
		}
		if *listing != "" {
			fi := mod.FuncIndex(*listing)
			if fi < 0 {
				return fmt.Errorf("no function %q", *listing)
			}
			pf := layout.PlaceFunc(mod.Funcs[fi], l.Funcs[fi], 0)
			fmt.Printf("--- %s layout of %s ---\n%s", a.Name(), *listing,
				layout.Listing(mod.Funcs[fi], l.Funcs[fi], pf))
		}
		if *showOrder {
			for fi, f := range mod.Funcs {
				fmt.Printf("  %s/%s: %v\n", a.Name(), f.Name, l.Funcs[fi].Order)
			}
		}
	}
	if *bound {
		if boundRun == nil {
			bsp := root.Child("bound")
			boundRun = align.Run(ctx, align.Original{}, mod, prof, model, align.RunOptions{Obs: bsp, Bound: &hkOpts})
			bsp.End(obs.Int("bound", int64(boundRun.Bound)))
		}
		hk := boundRun.Bound
		table.Rowf("lower bound|%d|%.3f|-|-", hk, stats.Ratio(hk, origCP, 1))
	}
	fmt.Println()
	fmt.Print(table.String())
	return nil
}

// printLoops reports each function's loop structure with profiled trip
// counts, the sanity view for "is the heat where the loops are".
func printLoops(mod *ir.Module, prof *interp.Profile) {
	for fi, f := range mod.Funcs {
		dom := cfganal.ComputeDominators(f)
		natural := cfganal.NaturalLoops(f, dom)
		if len(natural) == 0 {
			continue
		}
		depth := cfganal.LoopDepth(f)
		fmt.Printf("loops in %s:\n", f.Name)
		for _, l := range natural {
			backCount := int64(0)
			for si, s := range f.Blocks[l.Back].Term.Succs {
				if s == l.Header {
					backCount += prof.Funcs[fi].EdgeCounts[l.Back][si]
				}
			}
			fmt.Printf("  header b%d (depth %d): %d blocks, back edge b%d->b%d executed %d times\n",
				l.Header, depth[l.Header], len(l.Blocks), l.Back, l.Header, backCount)
		}
	}
}

func loadProgram(srcPath, benchName, dataset, data string, scalarN int64) (*ir.Module, []interp.Input, error) {
	if benchName != "" {
		b, err := bench.ByName(benchName)
		if err != nil {
			return nil, nil, err
		}
		if dataset == "" {
			dataset = b.DataSets[0].Name
		}
		ds, err := b.DataSet(dataset)
		if err != nil {
			return nil, nil, err
		}
		mod, err := b.Compile()
		if err != nil {
			return nil, nil, err
		}
		return mod, ds.Make(), nil
	}
	if srcPath == "" {
		return nil, nil, fmt.Errorf("need -src or -bench (see -help)")
	}
	src, err := os.ReadFile(srcPath)
	if err != nil {
		return nil, nil, err
	}
	prog, err := minic.Parse(string(src))
	if err != nil {
		return nil, nil, err
	}
	info, err := minic.Check(prog)
	if err != nil {
		return nil, nil, err
	}
	mod, err := lower.Program(info)
	if err != nil {
		return nil, nil, err
	}
	var arr []int64
	if data != "" {
		for _, part := range strings.Split(data, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 0, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad -data element %q: %w", part, err)
			}
			arr = append(arr, v)
		}
	}
	n := scalarN
	if n < 0 {
		n = int64(len(arr))
	}
	inputs, err := interp.EntryInputs(mod, arr, n)
	if err != nil {
		return nil, nil, err
	}
	return mod, inputs, nil
}

func pickAligners(sel string) ([]align.Aligner, error) {
	build := func(names ...string) ([]align.Aligner, error) {
		out := make([]align.Aligner, 0, len(names))
		for _, name := range names {
			a, err := align.ByName(name)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil
	}
	switch sel {
	case "all":
		// Every registered aligner except the original-order baseline,
		// which the driver always prints as its own first row. The order
		// is fixed (weakest heuristic to strongest solver), not the
		// registry's alphabetical one, so the table reads as a
		// progression.
		return build("greedy", "calder-grunwald", "ap-patch", "tsp", "exttsp")
	case "original":
		return nil, nil
	case "cg":
		sel = "calder-grunwald"
	case "patch":
		sel = "ap-patch"
	}
	return build(sel)
}

func cyclesCell(sim bool, cycles machine.Cost) string {
	if !sim {
		return "-"
	}
	return fmt.Sprintf("%d", cycles)
}
