package align

import (
	"context"
	"testing"
	"testing/quick"

	"branchalign/internal/bench"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/work"
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
	l := Run(context.Background(), a, mod, prof, m, RunOptions{}).Layout
	if err := l.Validate(mod); err != nil {
		t.Fatalf("invalid layout: %v", err)
	}
	got := layout.ModuleExtTSPScore(mod, l, prof, p)
	orig := layout.ModuleExtTSPScore(mod, Run(context.Background(), Original{}, mod, prof, m, RunOptions{}).Layout, prof, p)
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
		l := Run(context.Background(), &ExtTSP{}, mod, prof, m, RunOptions{}).Layout
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

// TestExtTSPDeterministic: fanning functions out over several workers
// is bit-identical to one worker (functions are independent; the
// per-function merge is sequential), and repeated runs agree. This is
// the schedule-independence contract CI's GOMAXPROCS=2 race step
// exercises.
func TestExtTSPDeterministic(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	seq := Run(context.Background(), &ExtTSP{}, mod, prof, m, RunOptions{Pool: work.NewPool(1)}).Layout
	for trial := 0; trial < 4; trial++ {
		par := Run(context.Background(), &ExtTSP{}, mod, prof, m, RunOptions{Pool: work.NewPool(4)}).Layout
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
	l := Run(ctx, a, mod, prof, m, RunOptions{}).Layout
	if err := l.Validate(mod); err != nil {
		t.Fatalf("truncated layout invalid: %v", err)
	}
	res := Run(ctx, a, mod, prof, m, RunOptions{}).Funcs[0]
	if len(mod.Funcs[0].Blocks) > 1 && !res.Truncated {
		t.Errorf("pre-cancelled ctx did not report truncation")
	}
}

// TestExtTSPFuncResultScoreMatchesRecompute: the score the aligner
// traces is the from-scratch ExtTSPScore of the order it returns.
func TestExtTSPFuncResultScoreMatchesRecompute(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	p := layout.DefaultExtTSPParams()
	sink := &obs.MemorySink{}
	tr := obs.New(sink)
	root := tr.Start("test")
	res := Run(context.Background(), &ExtTSP{}, mod, prof, m, RunOptions{Obs: root})
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{}
	for _, e := range sink.Events() {
		if e.Type == "span" && e.Name == "align.func" {
			scores[e.Str("func")] = e.Float("score")
		}
	}
	for fi, f := range mod.Funcs {
		want := layout.ExtTSPScore(f, prof.Funcs[fi], res.Funcs[fi].Order, p)
		if got, ok := scores[f.Name]; !ok || got != want {
			t.Errorf("%s: traced score %v (present %v) != recomputed %v", f.Name, got, ok, want)
		}
	}
}
