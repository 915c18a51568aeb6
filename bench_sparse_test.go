// Kernel benchmarks for the DTSP cost representation, tsp.SparseMatrix,
// which every solver kernel reads. Every row is named <family>/<instance>/sparse,
// so the whole set is snapshotted with
//
//	scripts/bench.sh sparse '//sparse'
//
// (see results/BENCH_<label>.json; `make bench` wraps the script).
// results/BENCH_baseline.json is the historical snapshot of the dense
// kernels this representation replaced.
package branchalign

import (
	"fmt"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
)

// largestBundledFunc returns the function with the most basic blocks
// across the bundled suite (xli's VM dispatch loop, 63 blocks) with its
// training profile.
func largestBundledFunc(b *testing.B) (*ir.Func, *interp.FuncProfile) {
	b.Helper()
	var bestF *ir.Func
	var bestP *interp.FuncProfile
	for _, bm := range bench.All() {
		mod, err := bm.Compile()
		if err != nil {
			b.Fatal(err)
		}
		prof := interp.NewProfile(mod)
		if _, err := interp.Run(mod, bm.DataSets[0].Make(), interp.Options{Profile: prof}); err != nil {
			b.Fatal(err)
		}
		for fi, f := range mod.Funcs {
			if bestF == nil || len(f.Blocks) > len(bestF.Blocks) {
				bestF, bestP = f, prof.Funcs[fi]
			}
		}
	}
	return bestF, bestP
}

func synthFunc(b *testing.B, blocks int) (*ir.Func, *interp.FuncProfile) {
	return synthFuncSeeded(b, blocks, int64(blocks)*13)
}

func synthFuncSeeded(b *testing.B, blocks int, seed int64) (*ir.Func, *interp.FuncProfile) {
	b.Helper()
	mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, seed))
	if err != nil {
		b.Fatal(err)
	}
	return mod.Funcs[0], prof.Funcs[0]
}

// BenchmarkMatrixBuild measures DTSP instance construction with the
// O(V+E) builder, predictions included.
func BenchmarkMatrixBuild(b *testing.B) {
	m := machine.Alpha21164()
	run := func(name string, f *ir.Func, fp *interp.FuncProfile) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				align.BuildSparseMatrix(f, fp, m, nil)
			}
		})
	}
	f, fp := largestBundledFunc(b)
	run("largest/sparse", f, fp)
	for _, blocks := range []int{5000, 10000, 20000} {
		f, fp := synthFunc(b, blocks)
		run(fmt.Sprintf("synth%d/sparse", blocks), f, fp)
	}
}

// BenchmarkNeighbors measures candidate-list construction on prebuilt
// instances: each row's exceptions merged with its k cheapest defaults.
func BenchmarkNeighbors(b *testing.B) {
	m := machine.Alpha21164()
	run := func(name string, sp *tsp.SparseMatrix) {
		forbid := sp.Forbid()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tsp.BuildNeighbors(sp, tsp.DefaultNeighborCount, forbid)
			}
		})
	}
	f, fp := largestBundledFunc(b)
	run("largest/sparse", align.BuildSparseMatrix(f, fp, m, nil))
	for _, blocks := range []int{5000, 10000, 20000} {
		f, fp := synthFunc(b, blocks)
		run(fmt.Sprintf("synth%d/sparse", blocks), align.BuildSparseMatrix(f, fp, m, nil))
	}
}

// BenchmarkSolveSmall runs the paper's full multi-start protocol on every
// function of the compress benchmark (all small, the common case): the
// exact DP and short local searches.
func BenchmarkSolveSmall(b *testing.B) {
	m := machine.Alpha21164()
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
	var sparse []*tsp.SparseMatrix
	for fi, f := range mod.Funcs {
		if len(f.Blocks) < 2 {
			continue
		}
		sparse = append(sparse, align.BuildSparseMatrix(f, prof.Funcs[fi], m, nil))
	}
	opts := tsp.PaperSolveOptions(1)
	b.Run("all/sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, mat := range sparse {
				tsp.Solve(mat, opts)
			}
		}
	})
}

// BenchmarkSolve runs the paper's full protocol, sequentially, on one
// 200-block function: the size balignd serves (synth_recorded's
// functions have 40 to 200 blocks, 140 to 220 per module). scripts/ci.sh
// holds it under a time ceiling.
func BenchmarkSolve(b *testing.B) {
	f, fp := synthFunc(b, 200)
	sp := align.BuildSparseMatrix(f, fp, machine.Alpha21164(), nil)
	opts := tsp.PaperSolveOptions(1)
	opts.Parallelism = 1
	b.Run("synth200/sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tsp.Solve(sp, opts)
		}
	})
}

// BenchmarkHeldKarpBound measures the directed Held-Karp bound, whose
// subgradient ascent builds the implicit 1-tree in O(E + n log n) per
// iterate. The synth200 row is the size and depth balignd serves: a
// 200-block function, like synth_recorded's largest, at the engine's
// default 1000 iterates; scripts/ci.sh holds it under a time ceiling.
// The synth5000 row is the allocation gate scripts/ci.sh reads.
func BenchmarkHeldKarpBound(b *testing.B) {
	m := machine.Alpha21164()
	f, fp := largestBundledFunc(b)
	sp := align.BuildSparseMatrix(f, fp, m, nil)
	b.Run("largest/sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tsp.HeldKarpBound(sp, tsp.HeldKarpOptions{Iterations: 50})
		}
	})
	sf, sfp := synthFunc(b, 200)
	served := align.BuildSparseMatrix(sf, sfp, m, nil)
	b.Run("synth200/sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tsp.HeldKarpBound(served, tsp.HeldKarpOptions{Iterations: 1000})
		}
	})
	for _, blocks := range []int{5000, 20000} {
		sf, sfp := synthFunc(b, blocks)
		ssp := align.BuildSparseMatrix(sf, sfp, m, nil)
		b.Run(fmt.Sprintf("synth%d/sparse", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tsp.HeldKarpBound(ssp, tsp.HeldKarpOptions{Iterations: 10})
			}
		})
	}
}

// BenchmarkLargeSolve runs nearest-neighbor construction plus a bounded
// iterated-3-opt pass on multi-thousand-block synthetic CFGs — the
// whole-solver scaling story the sparse representation exists for. No
// dense variant: the instance alone would be gigabytes.
//
// The /sparse rows run pure 3-opt (DisableOrOpt) — the same move
// sequence every pre-two-level snapshot ran, so they isolate the tour
// data structure's speedup. The /oropt rows run the production default
// (Or-opt interleaved), which converges deeper per iteration and
// therefore spends more time per solve for a better tour.
func BenchmarkLargeSolve(b *testing.B) {
	m := machine.Alpha21164()
	for _, blocks := range []int{5000, 20000} {
		f, fp := synthFunc(b, blocks)
		sp := align.BuildSparseMatrix(f, fp, m, nil)
		opts := tsp.PaperSolveOptions(1)
		opts.GreedyStarts, opts.NNStarts, opts.IdentityStarts = 0, 1, 0
		opts.MaxIterations = 20
		opts.DisableOrOpt = true
		b.Run(fmt.Sprintf("synth%d/sparse", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tsp.Solve(sp, opts)
			}
		})
		orOpts := opts
		orOpts.DisableOrOpt = false
		b.Run(fmt.Sprintf("synth%d/oropt", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tsp.Solve(sp, orOpts)
			}
		})
	}
}
