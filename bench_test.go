// Package branchalign's top-level benchmarks regenerate every table and
// figure of the paper (one Benchmark per experiment; see DESIGN.md) and
// measure the core algorithms. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks reuse one Suite per benchmark function, so
// profiling/tracing interpreter runs are paid once and the measured work
// is the alignment/evaluation pipeline itself.
package branchalign

import (
	"context"
	"fmt"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/core"
	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/pipe"
	"branchalign/internal/tsp"
)

// experimentSuite builds a Suite restricted to a moderate subset so one
// benchmark iteration stays around a second.
func experimentSuite(b *testing.B, names ...string) *core.Suite {
	b.Helper()
	s := core.NewSuite(1)
	if len(names) > 0 {
		if _, err := s.WithBenchmarks(names...); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// namedBenchmarks looks up bundled benchmarks by name.
func namedBenchmarks(b *testing.B, names ...string) []*bench.Benchmark {
	b.Helper()
	out := make([]*bench.Benchmark, len(names))
	for i, n := range names {
		bm, err := bench.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = bm
	}
	return out
}

// BenchmarkTable1 regenerates the benchmark inventory (Table 1).
func BenchmarkTable1(b *testing.B) {
	s := experimentSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Phases regenerates the phase-time table (Table 2). Each
// iteration re-runs every phase including profiling, as the table itself
// times phases.
func BenchmarkTable2Phases(b *testing.B) {
	s := experimentSuite(b, "compress", "xli")
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates original penalties, HK bounds and original
// simulated cycles (Table 4).
func BenchmarkTable4(b *testing.B) {
	s := experimentSuite(b, "compress", "espresso", "xli")
	for i := 0; i < b.N; i++ {
		if _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Penalties regenerates the control-penalty panel of Figure
// 2 (alignment + penalty evaluation + bounds; simulation excluded).
func BenchmarkFig2Penalties(b *testing.B) {
	names := []string{"compress", "espresso", "xli"}
	s := experimentSuite(b, names...)
	benches := namedBenchmarks(b, names...)
	for i := 0; i < b.N; i++ {
		for _, bm := range benches {
			mod, err := s.Module(bm)
			if err != nil {
				b.Fatal(err)
			}
			for di := range bm.DataSets {
				prof, _, err := s.ProfileOf(bm, &bm.DataSets[di])
				if err != nil {
					b.Fatal(err)
				}
				for _, a := range s.Aligners() {
					o := align.RunOptions{}
					if a.Name() == "tsp" {
						o.Bound = &s.HKOpts
					}
					layout.ModulePenalty(mod, align.Run(context.Background(), a, mod, prof, s.Model, o).Layout, prof, s.Model)
				}
			}
		}
	}
}

// BenchmarkFig2Times regenerates the execution-time panel of Figure 2
// (trace replays through the pipeline/I-cache simulator).
func BenchmarkFig2Times(b *testing.B) {
	names := []string{"compress", "xli"}
	s := experimentSuite(b, names...)
	benches := namedBenchmarks(b, names...)
	var events int64
	for i := 0; i < b.N; i++ {
		for _, bm := range benches {
			mod, err := s.Module(bm)
			if err != nil {
				b.Fatal(err)
			}
			for di := range bm.DataSets {
				ds := &bm.DataSets[di]
				layouts, err := s.LayoutsOf(context.Background(), bm, ds)
				if err != nil {
					b.Fatal(err)
				}
				for _, l := range layouts {
					st, err := s.SimulateCycles(bm, ds, mod, l)
					if err != nil {
						b.Fatal(err)
					}
					events += st.Events
				}
			}
		}
	}
	_ = events
}

// BenchmarkFig3 regenerates the cross-validation experiment (Figure 3).
func BenchmarkFig3(b *testing.B) {
	s := experimentSuite(b, "compress", "xli")
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendixBounds regenerates the appendix's per-procedure
// solver and bound statistics.
func BenchmarkAppendixBounds(b *testing.B) {
	s := experimentSuite(b, "espresso")
	for i := 0; i < b.N; i++ {
		if _, err := s.Appendix(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core algorithm micro-benchmarks ---

func synthInstance(b *testing.B, blocks int) *tsp.SparseMatrix {
	b.Helper()
	mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, 7))
	if err != nil {
		b.Fatal(err)
	}
	return align.BuildSparseMatrix(mod.Funcs[0], prof.Funcs[0], machine.Alpha21164(), nil)
}

// BenchmarkIteratedThreeOpt measures the paper's solver protocol on a
// 60-block synthetic procedure.
func BenchmarkIteratedThreeOpt(b *testing.B) {
	mat := synthInstance(b, 60)
	opts := tsp.PaperSolveOptions(1)
	opts.ExactThreshold = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsp.Solve(mat, opts)
	}
}

// BenchmarkHeldKarp measures the 1-tree subgradient bound.
func BenchmarkHeldKarp(b *testing.B) {
	mat := synthInstance(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsp.HeldKarpBound(mat, tsp.HeldKarpOptions{Iterations: 500})
	}
}

// BenchmarkHungarian measures the assignment-problem bound.
func BenchmarkHungarian(b *testing.B) {
	mat := synthInstance(b, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsp.AssignmentBound(mat)
	}
}

// BenchmarkExactDP measures the Held-Karp dynamic program on the largest
// instance the TSP aligner solves exactly.
func BenchmarkExactDP(b *testing.B) {
	mat := synthInstance(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsp.SolveExact(mat)
	}
}

// BenchmarkGreedyAlign and BenchmarkTSPAlign measure whole-module
// alignment of the compress benchmark.
func benchAlign(b *testing.B, a align.Aligner) {
	bm, err := bench.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := bm.Compile()
	if err != nil {
		b.Fatal(err)
	}
	prof := interp.NewProfile(mod)
	if _, err := interp.Run(mod, bm.DataSets[0].Make(), interp.Options{Profile: prof}); err != nil {
		b.Fatal(err)
	}
	m := machine.Alpha21164()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.Run(context.Background(), a, mod, prof, m, align.RunOptions{})
	}
}

func BenchmarkGreedyAlign(b *testing.B) { benchAlign(b, align.PettisHansen{}) }
func BenchmarkTSPAlign(b *testing.B)    { benchAlign(b, align.NewTSP(1)) }

// BenchmarkInterpreter measures the profiling interpreter the way
// balignd runs it on a cache miss: a fresh edge profile, the daemon's
// step budget. ns/step divides the run time by executed IR steps, so
// rows for different programs compare per unit of work.
func BenchmarkInterpreter(b *testing.B) {
	for _, c := range []struct{ name, bench, data string }{
		{"doduc_re", "doduc", "re"},
		{"eqntott_fx", "eqntott", "fx"},
		{"su2cor_sh", "su2cor", "sh"},
	} {
		b.Run(c.name, func(b *testing.B) {
			bm, err := bench.ByName(c.bench)
			if err != nil {
				b.Fatal(err)
			}
			mod, err := bm.Compile()
			if err != nil {
				b.Fatal(err)
			}
			ds, err := bm.DataSet(c.data)
			if err != nil {
				b.Fatal(err)
			}
			inputs := ds.Make()
			b.ReportAllocs()
			b.ResetTimer()
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := interp.Run(mod, inputs, interp.Options{Profile: interp.NewProfile(mod), MaxSteps: 1 << 31})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkSimulatorReplay measures trace replay through the pipeline +
// I-cache model.
func BenchmarkSimulatorReplay(b *testing.B) {
	bm, err := bench.ByName("su2cor")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := bm.Compile()
	if err != nil {
		b.Fatal(err)
	}
	prof := interp.NewProfile(mod)
	inputs := bm.DataSets[1].Make()
	if _, err := interp.Run(mod, inputs, interp.Options{Profile: prof}); err != nil {
		b.Fatal(err)
	}
	tr, _, err := pipe.Record(mod, inputs, interp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Replay(tr, mod, l, pipe.DefaultConfig())
	}
	b.ReportMetric(float64(tr.Len()), "events/op")
}

// BenchmarkLayoutPenalty measures the penalty evaluator.
func BenchmarkLayoutPenalty(b *testing.B) {
	mod, prof, err := bench.Synthesize(bench.DefaultSynth(200, 3))
	if err != nil {
		b.Fatal(err)
	}
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.ModulePenalty(mod, l, prof, m)
	}
}

// BenchmarkScalability sweeps the TSP aligner over growing synthetic
// procedures, the ablation DESIGN.md calls out for solver cost.
func BenchmarkScalability(b *testing.B) {
	for _, blocks := range []int{20, 50, 100, 200} {
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(blocks)))
		if err != nil {
			b.Fatal(err)
		}
		m := machine.Alpha21164()
		a := align.NewTSP(1)
		b.Run(sizeName(blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				align.Run(context.Background(), a, mod, prof, m, align.RunOptions{})
			}
		})
	}
}

func sizeName(blocks int) string {
	return fmt.Sprintf("blocks=%d", blocks)
}
