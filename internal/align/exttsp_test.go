package align

import (
	"context"
	"testing"
	"testing/quick"

	"branchalign/internal/bench"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

// TestExtTSPValidOnBenchmarks: the chain merger yields a valid layout on
// the real suite and never scores below the original order — the merge
// loop only joins chains when the ExtTSP gain is positive, and the seed
// chains already capture every mutually-hottest fall-through the
// identity layout can offer.
func TestExtTSPValidOnBenchmarks(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	p := layout.DefaultExtTSPParams()
	a := &ExtTSP{}
	l := a.Align(context.Background(), mod, prof, m)
	if err := l.Validate(mod); err != nil {
		t.Fatalf("invalid layout: %v", err)
	}
	got := layout.ModuleExtTSPScore(mod, l, prof, p)
	orig := layout.ModuleExtTSPScore(mod, Original{}.Align(context.Background(), mod, prof, m), prof, p)
	if got < orig {
		t.Errorf("exttsp score %.3f below original %.3f", got, orig)
	}
	t.Logf("exttsp score %.3f vs original %.3f", got, orig)
}

// TestQuickExtTSPValidOnSynthCFGs: valid layouts on arbitrary synthetic
// instances, including degenerate shapes (single block, all-cold,
// switch-heavy).
func TestQuickExtTSPValidOnSynthCFGs(t *testing.T) {
	m := machine.Alpha21164()
	f := func(blocksRaw, seedRaw uint16) bool {
		blocks := int(blocksRaw%40) + 1
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(seedRaw)+271))
		if err != nil {
			return false
		}
		l := (&ExtTSP{}).Align(context.Background(), mod, prof, m)
		if err := l.Validate(mod); err != nil {
			t.Logf("blocks=%d seed=%d: %v", blocks, seedRaw, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestExtTSPDeterministic: the parallel run is bit-identical to the
// sequential run (functions are independent; the per-function merge is
// sequential), and repeated runs agree. This is the schedule-independence
// contract CI's GOMAXPROCS=2 race step exercises.
func TestExtTSPDeterministic(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	seq := (&ExtTSP{}).Align(context.Background(), mod, prof, m)
	for trial := 0; trial < 4; trial++ {
		par := (&ExtTSP{Parallel: true}).Align(context.Background(), mod, prof, m)
		for fi := range mod.Funcs {
			so, po := seq.Funcs[fi].Order, par.Funcs[fi].Order
			for i := range so {
				if so[i] != po[i] {
					t.Fatalf("trial %d func %s: order diverged at %d: %v vs %v",
						trial, mod.Funcs[fi].Name, i, so, po)
				}
			}
		}
	}
}

// TestExtTSPCancelledContextStillValid: a pre-cancelled context
// truncates the merge loop immediately; the seed chains alone must
// still concatenate into a valid layout.
func TestExtTSPCancelledContextStillValid(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := &ExtTSP{}
	l := a.Align(ctx, mod, prof, m)
	if err := l.Validate(mod); err != nil {
		t.Fatalf("truncated layout invalid: %v", err)
	}
	res := a.AlignFunc(ctx, mod.Funcs[0], prof.Funcs[0], m)
	if len(mod.Funcs[0].Blocks) > 1 && !res.Truncated {
		t.Errorf("pre-cancelled ctx did not report truncation")
	}
}

// TestExtTSPFuncResultScoreMatchesRecompute: the score the aligner
// reports is the from-scratch ExtTSPScore of the order it returns —
// the incremental chain bookkeeping cannot drift from the objective.
func TestExtTSPFuncResultScoreMatchesRecompute(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	a := &ExtTSP{}
	p := layout.DefaultExtTSPParams()
	for fi, f := range mod.Funcs {
		res := a.AlignFunc(context.Background(), f, prof.Funcs[fi], m)
		want := layout.ExtTSPScore(f, prof.Funcs[fi], res.Order, p)
		if res.Score != want {
			t.Errorf("%s: reported score %v != recomputed %v", f.Name, res.Score, want)
		}
	}
}
