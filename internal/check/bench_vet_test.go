package check_test

import (
	"context"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/check"
	"branchalign/internal/interp"
	"branchalign/internal/machine"
)

// TestVetAllBenchmarks runs the full checker — structure, dataflow,
// flow conservation, layout/patch/placement/cost, and the bound chain —
// over every bundled benchmark under every aligner. This is the
// acceptance gate: a pipeline stage that breaks an invariant fails here
// before it can skew any experiment.
func TestVetAllBenchmarks(t *testing.T) {
	model := machine.Alpha21164()
	aligners := []align.Aligner{
		align.Original{},
		align.PettisHansen{},
		&align.CalderGrunwald{},
		align.APPatch{},
		align.TSP{},
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			mod, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			// The smaller data set keeps the suite fast; conservation and
			// the bound chain are input-independent invariants.
			ds := &b.DataSets[len(b.DataSets)-1]
			prof := interp.NewProfile(mod)
			if _, err := interp.Run(mod, ds.Make(), interp.Options{Profile: prof, MaxSteps: 1 << 31}); err != nil {
				t.Fatalf("profiling run failed: %v", err)
			}
			for _, a := range aligners {
				l := align.Run(context.Background(), a, mod, prof, model, align.RunOptions{Seed: 1}).Layout
				r := check.Module(mod)
				r.Merge(check.Flow(mod, prof))
				r.Merge(check.Layouts(mod, prof, l, model))
				r.Merge(check.Bounds(mod, prof, l, model, check.BoundsOptions{HKIterations: 120}))
				if !r.OK() {
					t.Errorf("%s/%s: %d invariant violations:\n%s", b.Name, a.Name(), r.Errors(), r.String())
				}
				t.Logf("%s/%s: %d warnings", b.Name, a.Name(), r.Warnings())
			}
		})
	}
}
