package branchalign

import (
	"context"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

// ExtTSP family benchmarks: the chain-merging aligner vs the DTSP
// solver (BenchmarkTSPAlign in bench_test.go measures the same module),
// the objective evaluator, and the merger's scaling on growing
// synthetic procedures. Snapshot with:
//
//	scripts/bench.sh exttsp

// BenchmarkExtTSPAlign measures whole-module chain-merging alignment of
// the compress benchmark (compare BenchmarkGreedyAlign/BenchmarkTSPAlign).
func BenchmarkExtTSPAlign(b *testing.B) { benchAlign(b, &align.ExtTSP{}) }

// BenchmarkExtTSPScore measures the objective evaluator on a 200-block
// synthetic module (compare BenchmarkLayoutPenalty, the control-penalty
// evaluator on the same instance).
func BenchmarkExtTSPScore(b *testing.B) {
	mod, prof, err := bench.Synthesize(bench.DefaultSynth(200, 3))
	if err != nil {
		b.Fatal(err)
	}
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.ModuleExtTSPScore(mod, l, prof)
	}
}

// BenchmarkExtTSPScalability sweeps the chain merger over growing
// synthetic procedures (the DTSP counterpart is BenchmarkScalability).
func BenchmarkExtTSPScalability(b *testing.B) {
	for _, blocks := range []int{20, 50, 100, 200} {
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(blocks)))
		if err != nil {
			b.Fatal(err)
		}
		m := machine.Alpha21164()
		a := &align.ExtTSP{}
		b.Run(sizeName(blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				align.Run(context.Background(), a, mod, prof, m, align.RunOptions{})
			}
		})
	}
}
