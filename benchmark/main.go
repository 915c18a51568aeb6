// Command benchmark measures balignd end to end: it builds ./cmd/balignd,
// starts it on a loopback port with its production defaults, drives one
// of four seeded request workloads through it in a closed loop, checks
// every served layout, and prints each metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh -workload cold_bundled -seed 1 -seconds 25
//	bash benchmark/run.sh -workload all -trace 1
//
// -trace 1 replaces the timed run with the per-layer run: an untraced and
// a traced pass over each workload's first requests, plus in-process
// timings of the front-end functions, with the spans written to
// benchmark/results/trace-<workload>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

type options struct {
	root     string // repository root holding ./cmd/balignd
	workload string
	seed     int64
	seconds  int
	runs     int
	trace    bool
	out      string
	// rounds is how many parts, each with a fresh daemon and its own
	// set-up, a run's timed seconds are split into.
	rounds int
	// maxRequests caps each timed phase (0 = time only); the smoke test
	// sets it.
	maxRequests int
}

func main() {
	o := options{root: ".", rounds: 3}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 25, "timed seconds per run")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, at seeds seed, seed+1, ...")
	fs.Func("trace", "1 for the traced per-layer run, 0 for the end-to-end run", func(s string) error {
		v, err := strconv.ParseBool(s)
		o.trace = v
		return err
	})
	fs.StringVar(&o.out, "out", "", "append one JSON record per run to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(context.Background(), o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run measures every requested (workload, seed) and returns an error if
// any run failed or served an incorrect response.
func run(ctx context.Context, o options, stdout io.Writer) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	bin, err := buildDaemon(o.root, filepath.Join(o.root, ".bench_build"))
	if err != nil {
		return err
	}
	bad := 0
	for _, name := range names {
		for k := 0; k < o.runs; k++ {
			seed := o.seed + int64(k)
			res, err := runOnce(ctx, o, name, seed, bin, stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", line)
			if o.out != "" {
				if err := appendRecord(o, name, seed, res); err != nil {
					return err
				}
			}
			if !res.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) served failed or incorrect responses", bad)
	}
	return nil
}

// result is the JSON object each run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report records each metric in the result and echoes it as a line.
type report struct {
	w   io.Writer
	res *result
}

func (r report) add(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-28s %14.6g %-7s %s\n", name, v, unit, note)
}

func runOnce(ctx context.Context, o options, name string, seed int64, bin string, stdout io.Writer) (*result, error) {
	pregen := o.maxRequests
	if pregen <= 0 {
		pregen = 8 * o.seconds
	}
	w, err := newWorkload(name, seed, pregen)
	if err != nil {
		return nil, err
	}
	clients := min(w.clients, runtime.NumCPU())
	fmt.Fprintf(stdout, "# workload %s seed %d clients %d host_cpus %d trace %v\n", name, seed, clients, runtime.NumCPU(), o.trace)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	rep := report{w: stdout, res: res}
	if o.trace {
		err = traceRun(ctx, o, w, clients, bin, rep)
	} else {
		err = endToEnd(ctx, o, w, clients, bin, rep)
	}
	if err != nil {
		return nil, err
	}
	if err := w.seq.failed(); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp starts a fresh daemon and sends the workload's set-up requests.
// It returns the daemon, the set-up samples and the set-up time: exec to
// /v1/readyz 200 plus the set-up requests.
func setUp(ctx context.Context, w *workload, clients int, bin string, trace bool) (*daemon, []sample, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, clients)
	if err != nil {
		return nil, nil, 0, err
	}
	ss, _ := drive(ctx, d, clients, trace, fixed(w.setup))
	return d, ss, time.Since(t0), nil
}

// endToEnd is the tracing-off run. It runs o.rounds rounds; each starts
// a fresh daemon, sets it up and measures for an equal share of
// o.seconds, continuing the workload's request sequence where the last
// round stopped. Latency samples are pooled; set-up time and RSS are
// medians over the rounds.
func endToEnd(ctx context.Context, o options, w *workload, clients int, bin string, rep report) error {
	rounds := max(o.rounds, 1)
	share := time.Duration(o.seconds) * time.Second / time.Duration(rounds)
	var setups, rss []float64
	var all, samples []sample
	var wall time.Duration
	for k := 0; k < rounds; k++ {
		d, ss, took, err := setUp(ctx, w, clients, bin, false)
		if err != nil {
			return err
		}
		from := len(samples)
		stopRSS := d.sampleRSS(50 * time.Millisecond)
		got, roundWall := drive(ctx, d, clients, false, timed(w.seq, from, share, o.maxRequests))
		rss = append(rss, median(stopRSS()))
		d.stop()
		for i := range got {
			got[i].idx += from
		}
		setups = append(setups, took.Seconds())
		all = append(append(all, ss...), got...)
		samples = append(samples, got...)
		wall += roundWall
	}
	failed := verify(all, rep)

	var lat, norm []float64
	for _, s := range samples {
		if s.resp == nil {
			continue
		}
		lat = append(lat, ms(s.latency))
		if s.idx < w.quality {
			norm = append(norm, normalized(s.resp))
		}
	}
	sort.Float64s(lat)
	beyond := len(lat) - int(math.Ceil(0.9*float64(len(lat))))
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d rounds", rounds))
	rep.add("throughput_rps", float64(len(lat))/wall.Seconds(), "req/s", fmt.Sprintf("%d ok in %.2fs", len(lat), wall.Seconds()))
	rep.add("latency_p50_ms", quantile(lat, 0.5), "ms", "")
	rep.add("latency_p90_ms", quantile(lat, 0.9), "ms", fmt.Sprintf("n=%d, %d beyond", len(lat), beyond))
	rep.add("penalty_ratio", mean(norm), "ratio", fmt.Sprintf("mean over the first %d requests", len(norm)))
	rep.add("rss_median_mb", median(rss), "MB", fmt.Sprintf("median VmRSS, median of %d rounds", rounds))
	fmt.Fprintf(rep.w, "%-28s %14.6g %-7s %d of %d\n", "error_ratio", ratio(int64(failed), int64(len(all))), "ratio", failed, len(all))
	rep.res.Attempted = len(all)
	rep.res.Failed = failed
	rep.res.Correct = failed == 0
	return nil
}

// verify checks every sample and returns how many failed, printing the
// first few failures.
func verify(samples []sample, rep report) int {
	chk := newChecker()
	failed := 0
	for i := range samples {
		s := &samples[i]
		err := s.err
		if err == nil {
			err = chk.check(s)
		}
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(rep.w, "# FAIL %s: %v\n", s.it.prog.name, err)
			}
		}
	}
	return failed
}

// appendRecord appends one run's result, stamped with its provenance, to
// o.out as a JSON line; benchmark/compare reads these files.
func appendRecord(o options, name string, seed int64, res *result) error {
	rec := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"host_cpus":  runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"result":     res,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit is the VCS revision the benchmark binary was built from, or
// "unknown" outside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(max(len(xs), 1))
}

// normalized is a response's control penalty over the compiler order's,
// as balignd reports it in "normalized".
func normalized(r *alignResponse) float64 {
	if r.OriginalPenalty == 0 {
		return 1
	}
	return float64(r.Penalty) / float64(r.OriginalPenalty)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
