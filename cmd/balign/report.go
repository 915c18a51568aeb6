package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/stats"
	"branchalign/internal/tsp"
)

// runReport implements `balign report`: a per-function convergence table
// for the TSP aligner — cities, final tour cost, Held-Karp lower bound,
// optimality gap, and local-search effort. The table is rendered either
// from a recorded NDJSON trace (-in, as written by `balign -trace`) or
// from a fresh in-process run of the solver and bound over a program.
func runReport(args []string) int {
	fs := flag.NewFlagSet("balign report", flag.ExitOnError)
	var (
		in        = fs.String("in", "", "render from a recorded NDJSON trace instead of running the pipeline (\"-\" reads stdin)")
		srcPath   = fs.String("src", "", "Mini-C source file to align")
		data      = fs.String("data", "", "comma-separated ints for the entry array input")
		scalarN   = fs.Int64("n", -1, "entry scalar argument (default: array length)")
		benchName = fs.String("bench", "", "use a built-in benchmark instead of -src")
		dataset   = fs.String("dataset", "", "benchmark data set name (with -bench)")
		modelSel  = fs.String("model", "alpha21164", "machine model: alpha21164, shallow, deep")
		seed      = fs.Int64("seed", 1, "solver seed")
		algSel    = fs.String("algorithm", "tsp", "aligner for live runs: tsp, exttsp, greedy, ...")
		hkIters   = fs.Int("hk-iters", 3000, "Held-Karp subgradient iterations (positive)")
		parallel  = fs.Int("parallel", 0, "TSP solver parallelism for live runs: max concurrent local-search runs per function (-1 = all CPUs); bit-identical results, lower wall-clock in the solve-ms column")
	)
	fs.Parse(args)
	if *hkIters <= 0 {
		fmt.Fprintf(os.Stderr, "balign report: -hk-iters must be positive, got %d\n", *hkIters)
		return 1
	}

	var events []obs.Event
	if *in != "" {
		// "-" renders a trace piped on stdin, so a recorded run can be
		// inspected without touching disk:
		//   balign -bench compress -bound -trace - | balign report -in -
		r, name := io.Reader(os.Stdin), "stdin"
		if *in != "-" {
			f, err := os.Open(*in)
			if err != nil {
				fmt.Fprintln(os.Stderr, "balign report:", err)
				return 1
			}
			defer f.Close()
			r, name = f, *in
		}
		var err error
		events, err = obs.ReadEvents(eventLines(r))
		if err != nil {
			fmt.Fprintf(os.Stderr, "balign report: reading %s: %v\n", name, err)
			return 1
		}
	} else {
		var err error
		events, err = reportRun(*srcPath, *benchName, *dataset, *data, *scalarN, *modelSel, *algSel, *seed, *hkIters, *parallel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "balign report:", err)
			return 1
		}
	}
	fmt.Print(renderReport(events))
	return 0
}

// reportRun executes the profile -> align -> Held-Karp pipeline with
// an in-memory telemetry sink and returns the collected events.
func reportRun(srcPath, benchName, dataset, data string, scalarN int64, modelSel, algorithm string, seed int64, hkIters, parallel int) ([]obs.Event, error) {
	mod, inputs, err := loadProgram(srcPath, benchName, dataset, data, scalarN)
	if err != nil {
		return nil, err
	}
	model, err := machine.ByName(modelSel)
	if err != nil {
		return nil, err
	}
	prof, _, err := profileProgram(mod, inputs)
	if err != nil {
		return nil, err
	}

	sink := &obs.MemorySink{}
	tr := obs.New(sink)
	root := tr.Start("balign.report", obs.String("model", modelSel),
		obs.String("algorithm", algorithm), obs.Int("seed", seed))
	aligner, err := align.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	align.Run(context.Background(), aligner, mod, prof, model, align.RunOptions{
		Seed:        seed,
		Parallelism: parallel,
		Bound:       &tsp.HeldKarpOptions{Iterations: hkIters},
		Obs:         root,
	})
	root.End()
	if err := tr.Close(); err != nil {
		return nil, err
	}
	return sink.Events(), nil
}

// profileProgram runs the training execution and returns the profile
// with the run's result.
func profileProgram(mod *ir.Module, inputs []interp.Input) (*interp.Profile, interp.Result, error) {
	prof := interp.NewProfile(mod)
	res, err := interp.Run(mod, inputs, interp.Options{Profile: prof, MaxSteps: 1 << 31})
	if err != nil {
		return nil, res, fmt.Errorf("profiling run failed: %w", err)
	}
	return prof, res, nil
}

// reportRow is one function's joined solver + bound telemetry.
type reportRow struct {
	fn         string
	alg        string
	cities     int64
	cost       int64
	bound      int64
	hasHK      bool
	hkIters    int64
	hkConv     bool
	exact      bool
	runs       int64
	runsBest   int64
	iterBest   int64
	tried      int64
	accepted   int64
	orTried    int64
	orAccepted int64
	durUS      int64
}

// renderReport joins "align.func" and "align.hk" spans by function name
// and renders the convergence table. Functions are ordered by descending
// tour cost (heaviest instances first), then by name, so the output is
// deterministic even when the solves ran in parallel.
func renderReport(events []obs.Event) string {
	rows := map[string]*reportRow{}
	get := func(fn string) *reportRow {
		r, ok := rows[fn]
		if !ok {
			r = &reportRow{fn: fn}
			rows[fn] = r
		}
		return r
	}
	for _, e := range events {
		if e.Type != "span" {
			continue
		}
		switch e.Name {
		case "align.func":
			r := get(e.Str("func"))
			// Spans recorded before the aligner registry carry no
			// algorithm attribute; they were all TSP solves.
			r.alg = e.Str("algorithm")
			if r.alg == "" {
				r.alg = "tsp"
			}
			r.cities = e.Int("cities")
			r.cost = e.Int("cost")
			r.exact = e.Bool("exact")
			r.runs = e.Int("runs")
			r.runsBest = e.Int("runs_at_best")
			r.iterBest = e.Int("iter_best")
			r.tried = e.Int("moves_tried")
			r.accepted = e.Int("moves_accepted")
			r.orTried = e.Int("or_moves_tried")
			r.orAccepted = e.Int("or_moves_accepted")
			r.durUS = e.DurUS
		case "align.hk":
			r := get(e.Str("func"))
			r.bound = e.Int("bound")
			r.hkIters = e.Int("iterations")
			r.hkConv = e.Bool("converged")
			r.hasHK = true
		}
	}
	if len(rows) == 0 {
		return requestHeader(events) + "no align.func/align.hk spans in trace (was the run recorded with -trace, tsp aligner and -bound?)\n"
	}
	ordered := make([]*reportRow, 0, len(rows))
	for _, r := range rows {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].cost != ordered[j].cost {
			return ordered[i].cost > ordered[j].cost
		}
		return ordered[i].fn < ordered[j].fn
	})

	table := stats.NewTable("function", "algorithm", "cities", "tour cost", "HK bound", "gap %", "HK iters", "HK conv", "exact", "runs@best", "iters to best", "3-opt acc/tried", "or-opt acc/tried", "solve ms")
	var tot reportRow
	allHK := true
	for _, r := range ordered {
		bound, gap, hkit, hkcv := "-", "-", "-", "-"
		if r.hasHK {
			bound = fmt.Sprintf("%d", r.bound)
			gap = fmt.Sprintf("%.2f", stats.GapPct(r.cost, r.bound))
			// Exact bounds (small functions) run no ascent: iterations
			// stays "-" and converged is trivially true.
			if r.hkIters > 0 {
				hkit = fmt.Sprintf("%d", r.hkIters)
			}
			hkcv = fmt.Sprintf("%v", r.hkConv)
		} else {
			allHK = false
		}
		alg := r.alg
		if alg == "" {
			alg = "-" // an align.hk span with no matching align.func
		}
		table.Rowf("%s|%s|%d|%d|%s|%s|%s|%s|%v|%d/%d|%d|%s/%s|%s/%s|%s",
			r.fn, alg, r.cities, r.cost, bound, gap, hkit, hkcv, r.exact, r.runsBest, r.runs,
			r.iterBest, stats.FormatCount(r.accepted), stats.FormatCount(r.tried),
			stats.FormatCount(r.orAccepted), stats.FormatCount(r.orTried),
			solveMS(r.durUS))
		tot.cities += r.cities
		tot.cost += r.cost
		tot.bound += r.bound
		tot.hkIters += r.hkIters
		tot.tried += r.tried
		tot.accepted += r.accepted
		tot.orTried += r.orTried
		tot.orAccepted += r.orAccepted
		tot.durUS += r.durUS
	}
	if len(ordered) > 1 {
		bound, gap, hkit := "-", "-", "-"
		if allHK {
			bound = fmt.Sprintf("%d", tot.bound)
			gap = fmt.Sprintf("%.2f", stats.GapPct(tot.cost, tot.bound))
			hkit = fmt.Sprintf("%d", tot.hkIters)
		}
		table.Rowf("total (%d)||%d|%d|%s|%s|%s|||||%s/%s|%s/%s|%s",
			len(ordered), tot.cities, tot.cost, bound, gap, hkit,
			stats.FormatCount(tot.accepted), stats.FormatCount(tot.tried),
			stats.FormatCount(tot.orAccepted), stats.FormatCount(tot.orTried),
			solveMS(tot.durUS))
	}
	return requestHeader(events) + table.String() + spliceFooter(events)
}

// requestHeader renders the request IDs found in the trace, one header
// line above the table. balignd stamps the middleware-assigned ID on
// each request's root span, so an operator holding an access-log line
// can confirm this trace is the one that served it. Traces recorded by
// the CLI carry no ID and render no header.
func requestHeader(events []obs.Event) string {
	var ids []string
	seen := map[string]bool{}
	for _, e := range events {
		if e.Type != "span" || !e.Has("request_id") {
			continue
		}
		if id := e.Str("request_id"); id != "" && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return ""
	}
	return "request id: " + strings.Join(ids, ", ") + "\n"
}

// spliceFooter renders the applied-move splice-length distribution (the
// "tsp.splice_len" histogram flushed per local-search run) as one line
// under the table: sample count, exact mean, and the occupied
// power-of-two buckets. Traces without the histogram (pre-Or-opt
// recordings, exact-only solves) render nothing.
func spliceFooter(events []obs.Event) string {
	for _, e := range events {
		if e.Type != "hist" || e.Name != "tsp.splice_len" {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "splice length: %s moves, mean %.2f, buckets(le:n)",
			stats.FormatCount(e.Count), e.Float("mean"))
		for _, bk := range e.Buckets {
			fmt.Fprintf(&b, " %d:%s", bk.Le, stats.FormatCount(bk.N))
		}
		b.WriteByte('\n')
		return b.String()
	}
	return ""
}

// solveMS renders one solve's recorded wall-clock in milliseconds.
// obs.Event drops a zero dur_us from the JSON, so a solve that took
// under a microsecond decodes as 0 and renders 0.00, not as a missing
// cell: a one-block function would otherwise flip between "-" and a
// number from run to run. Per-function wall-clock is how solver
// parallelism shows up in production output: -parallel lowers this
// column while every other cell stays bit-identical.
func solveMS(durUS int64) string {
	return fmt.Sprintf("%.2f", float64(durUS)/1000)
}

// eventLines filters a trace stream down to its NDJSON event lines
// (those starting with '{'). `balign -trace /dev/stdout` interleaves
// the driver's human-readable progress lines with the event stream;
// dropping them lets that output pipe straight into `report -in -`.
// Malformed lines that do start with '{' still fail the decode.
func eventLines(r io.Reader) io.Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // convergence-series events can be long
	var buf bytes.Buffer
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "{") {
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
	}
	return &buf
}
