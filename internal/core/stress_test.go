package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
	"branchalign/internal/work"
)

// TestStressLargeModule runs the full alignment stack on a module far
// larger than the benchmark suite: 40 synthetic functions of up to 120
// blocks each (thousands of blocks total), checking validity,
// improvement and the bound sandwich at scale. Skipped in -short mode.
func TestStressLargeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	mod := &ir.Module{}
	prof := &interp.Profile{}
	totalBlocks := 0
	for i := 0; i < 40; i++ {
		blocks := 10 + (i*7)%111
		m1, p1, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(i)*131+5))
		if err != nil {
			t.Fatal(err)
		}
		f := m1.Funcs[0]
		f.Name = fmt.Sprintf("synth%02d", i)
		mod.Funcs = append(mod.Funcs, f)
		prof.Funcs = append(prof.Funcs, p1.Funcs[0])
		totalBlocks += blocks
	}
	prof.CallCounts = make([][]int64, len(mod.Funcs))
	for i := range prof.CallCounts {
		prof.CallCounts[i] = make([]int64, len(mod.Funcs))
	}
	if err := mod.Verify(); err != nil {
		t.Fatal(err)
	}
	t.Logf("stress module: %d functions, %d blocks", len(mod.Funcs), totalBlocks)

	m := machine.Alpha21164()
	orig := align.Run(context.Background(), align.Original{}, mod, prof, m, align.RunOptions{}).Penalty

	// The tsp run fans out over four workers and also bounds every
	// function; one worker must give the same layout and bound.
	hk := tsp.HeldKarpOptions{Iterations: 400}
	run := align.Run(context.Background(), align.NewTSP(1), mod, prof, m, align.RunOptions{Pool: work.NewPool(4), Bound: &hk})
	l := run.Layout
	if err := l.Validate(mod); err != nil {
		t.Fatal(err)
	}
	seq := align.Run(context.Background(), align.NewTSP(1), mod, prof, m, align.RunOptions{Pool: work.NewPool(1), Bound: &hk})
	if seq.Bound != run.Bound {
		t.Errorf("bound on one worker %d != on four %d", seq.Bound, run.Bound)
	}
	for fi := range mod.Funcs {
		if !reflect.DeepEqual(seq.Funcs[fi].Order, run.Funcs[fi].Order) {
			t.Fatalf("%s: order on one worker diverges from four", mod.Funcs[fi].Name)
		}
	}
	tspCP := layout.ModulePenalty(mod, l, prof, m)
	if tspCP > orig {
		t.Errorf("TSP worsened the stress module: %d -> %d", orig, tspCP)
	}

	greedyCP := align.Run(context.Background(), align.PettisHansen{}, mod, prof, m, align.RunOptions{}).Penalty
	if tspCP > greedyCP {
		t.Errorf("TSP (%d) behind greedy (%d) on stress module", tspCP, greedyCP)
	}

	bound := run.Bound
	if bound > tspCP {
		t.Errorf("HK bound %d above TSP penalty %d", bound, tspCP)
	}
	if bound <= 0 {
		t.Error("vacuous bound on stress module")
	}
	t.Logf("stress: original %d, greedy %d, tsp %d, bound %d (tsp removes %.1f%%)",
		orig, greedyCP, tspCP, bound, 100*(1-float64(tspCP)/float64(orig)))

	// Placement must tile without overlap at scale.
	pm := layout.PlaceModule(mod, l)
	if pm.Funcs[len(pm.Funcs)-1].End <= 0 {
		t.Error("empty placement")
	}
}
