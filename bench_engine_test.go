package branchalign

import (
	"context"
	"testing"

	"branchalign/internal/engine"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/testutil"
)

// BenchmarkEngineDispatch measures the alignment engine's request
// overhead around the solver, on a request built the way balignd builds
// one: Inputs carrying the program text, and a Load that hands back the
// compiled module and profile (precompiled here, so cold prices the
// engine round trip rather than the front end):
//
//   - cold: every request is a full solve (cache disabled) — the price
//     of one uncached engine round trip, dominated by the TSP solves;
//   - cached: every request after the first is served from the keyed
//     result cache — the pure dispatch overhead (hashing Inputs, LRU
//     lookup, result copy), which is what a balignd hit pays in the
//     engine. scripts/ci.sh gates its allocs/op.
//
// Snapshot with: scripts/bench.sh engine
func BenchmarkEngineDispatch(b *testing.B) {
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource, testutil.BranchyInput(400, 7))
	if err != nil {
		b.Fatal(err)
	}
	req := engine.Request{
		Inputs: []byte(testutil.BranchySource),
		Load: func(*obs.Span) (*ir.Module, *interp.Profile, error) {
			return mod, prof, nil
		},
		Model: machine.Alpha21164(),
		Seed:  1,
	}

	b.Run("cold", func(b *testing.B) {
		e := engine.New(engine.Options{CacheEntries: -1})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := e.Align(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHit {
				b.Fatal("cache hit with caching disabled")
			}
		}
	})

	b.Run("cached", func(b *testing.B) {
		e := engine.New(engine.Options{})
		if _, err := e.Align(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Align(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if !res.CacheHit {
				b.Fatal("expected cache hit")
			}
		}
	})
}
