package pipe

import (
	"context"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/testutil"
)

func setup(t *testing.T) (*ir.Module, *interp.Profile, []interp.Input) {
	t.Helper()
	inputs := testutil.BranchyInput(600, 3)
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return mod, prof, inputs
}

func TestRunProducesConsistentStats(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	stats, res, err := Run(mod, l, inputs, DefaultConfig(), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 || stats.Instructions == 0 {
		t.Fatal("empty simulation")
	}
	if stats.Cycles < stats.Instructions {
		t.Errorf("cycles %d below instruction count %d", stats.Cycles, stats.Instructions)
	}
	if stats.Cycles != stats.Instructions+stats.ControlPenalty+stats.CacheMisses*DefaultCache().MissPenalty {
		t.Errorf("cycle accounting inconsistent: %+v", stats)
	}
	if got := res.DynBranches() + res.DynRet; got != stats.Events {
		t.Errorf("events %d != dynamic terminators %d", stats.Events, got)
	}
	if stats.CPI() <= 1.0 {
		t.Errorf("CPI = %.3f, expected > 1 with penalties", stats.CPI())
	}
	if stats.MissRate() < 0 || stats.MissRate() > 1 {
		t.Errorf("MissRate = %f out of range", stats.MissRate())
	}
}

// TestAlignablePenaltyMatchesLayoutPenalty: simulating on the same input
// the layout was trained on, the simulator's alignable penalty must equal
// the compiler's ModulePenalty estimate exactly — the two implementations
// share the event model but compute it independently (per-execution vs
// aggregated).
func TestAlignablePenaltyMatchesLayoutPenalty(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	for _, a := range []align.Aligner{align.Original{}, align.PettisHansen{}, align.NewTSP(1)} {
		l := align.Run(context.Background(), a, mod, prof, m, align.RunOptions{}).Layout
		stats, _, err := Run(mod, l, inputs, DefaultConfig(), interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := layout.ModulePenalty(mod, l, prof, m)
		if stats.AlignablePenalty != want {
			t.Errorf("%s: simulated alignable penalty %d != modeled penalty %d",
				a.Name(), stats.AlignablePenalty, want)
		}
	}
}

func TestRecordReplayMatchesDirectRun(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	direct, _, err := Run(mod, l, inputs, DefaultConfig(), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := Record(mod, inputs, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := Replay(tr, mod, l, DefaultConfig())
	if direct != replayed {
		t.Errorf("replayed stats differ from direct run:\n direct  %+v\n replay  %+v", direct, replayed)
	}
	if tr.Len() == 0 {
		t.Error("empty trace")
	}
}

func TestBetterLayoutsRunFaster(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	tr, _, err := Record(mod, inputs, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	orig := Replay(tr, mod, align.Run(context.Background(), align.Original{}, mod, prof, m, align.RunOptions{}).Layout, cfg)
	greedy := Replay(tr, mod, align.Run(context.Background(), align.PettisHansen{}, mod, prof, m, align.RunOptions{}).Layout, cfg)
	tspStats := Replay(tr, mod, align.Run(context.Background(), align.NewTSP(1), mod, prof, m, align.RunOptions{}).Layout, cfg)
	if greedy.Cycles > orig.Cycles {
		t.Errorf("greedy cycles %d worse than original %d", greedy.Cycles, orig.Cycles)
	}
	if tspStats.Cycles > orig.Cycles {
		t.Errorf("TSP cycles %d worse than original %d", tspStats.Cycles, orig.Cycles)
	}
	if tspStats.AlignablePenalty > greedy.AlignablePenalty {
		t.Errorf("TSP alignable penalty %d worse than greedy %d", tspStats.AlignablePenalty, greedy.AlignablePenalty)
	}
}

func TestCacheDisabledRemovesMissCycles(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	cfg := DefaultConfig()
	withCache, _, err := Run(mod, l, inputs, cfg, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache.Disabled = true
	noCache, _, err := Run(mod, l, inputs, cfg, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if noCache.CacheMisses != 0 || noCache.CacheAccesses != 0 {
		t.Errorf("disabled cache still recorded activity: %+v", noCache)
	}
	if noCache.Cycles != withCache.Cycles-withCache.CacheMisses*cfg.Cache.MissPenalty {
		t.Errorf("cache-disabled cycles inconsistent")
	}
}

func TestTinyCacheThrashes(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	big := DefaultConfig()
	small := DefaultConfig()
	small.Cache.SizeBytes = 64 // two lines: guaranteed conflict misses
	bigStats, _, err := Run(mod, l, inputs, big, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	smallStats, _, err := Run(mod, l, inputs, small, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if smallStats.CacheMisses <= bigStats.CacheMisses {
		t.Errorf("64B cache misses (%d) should exceed 8KB cache misses (%d)",
			smallStats.CacheMisses, bigStats.CacheMisses)
	}
}

func TestFixupJumpsAreFetched(t *testing.T) {
	// Construct a layout that displaces both successors of a hot
	// conditional so fixups execute, then check that the simulator counts
	// them and fetches their slots.
	src := `
func main(input[], n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) {
		if (input[i] > 0) { s = s + 1; } else { s = s - 1; }
	}
	return s;
}
`
	data := make([]int64, 100)
	for i := range data {
		data[i] = int64(i%2*2 - 1) // alternate -1 / +1
	}
	inputs := []interp.Input{interp.ArrayInput(data), interp.ScalarInput(100)}
	mod, prof, _, err := testutil.CompileAndProfile(src, inputs)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Alpha21164()
	f := mod.Funcs[mod.EntryFunc]
	// Find a conditional block and push both its successors to the end of
	// the order, far from it.
	var condBlk = -1
	for b, blk := range f.Blocks {
		if blk.Term.Kind == ir.TermCondBr && b == 0 {
			continue
		}
		if blk.Term.Kind == ir.TermCondBr {
			condBlk = b
			break
		}
	}
	if condBlk < 0 {
		t.Fatal("no conditional block found")
	}
	s0, s1 := f.Blocks[condBlk].Term.Succs[0], f.Blocks[condBlk].Term.Succs[1]
	var order []int
	order = append(order, 0)
	if condBlk != 0 {
		order = append(order, condBlk)
	}
	for b := range f.Blocks {
		if b != 0 && b != condBlk && b != s0 && b != s1 {
			order = append(order, b)
		}
	}
	if s0 != 0 && s0 != condBlk {
		order = append(order, s0)
	}
	if s1 != 0 && s1 != condBlk {
		order = append(order, s1)
	}
	l := &layout.Layout{}
	for fi, fn := range mod.Funcs {
		if fi == mod.EntryFunc {
			l.Funcs = append(l.Funcs, layout.Finalize(fn, prof.Funcs[fi], order, m))
			continue
		}
		id := make([]int, len(fn.Blocks))
		for i := range id {
			id[i] = i
		}
		l.Funcs = append(l.Funcs, layout.Finalize(fn, prof.Funcs[fi], id, m))
	}
	if err := l.Validate(mod); err != nil {
		t.Fatal(err)
	}
	stats, _, err := Run(mod, l, inputs, DefaultConfig(), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FixupJumps == 0 {
		t.Error("expected fixup jumps to execute under the displacing layout")
	}
}

func TestTraceEncodingRoundTrip(t *testing.T) {
	cases := []struct{ fn, blk, succ int }{
		{0, 0, -1},
		{3, 17, 0},
		{1023, 4095, 42},
	}
	for _, c := range cases {
		e := uint64(c.fn)<<traceFnShift | uint64(c.blk)<<traceBlkShift | uint64(c.succ+1)
		fn := int(e >> traceFnShift)
		blk := int(e>>traceBlkShift) & traceBlkMask
		succ := int(e&traceSuccMask) - 1
		if fn != c.fn || blk != c.blk || succ != c.succ {
			t.Errorf("roundtrip (%d,%d,%d) -> (%d,%d,%d)", c.fn, c.blk, c.succ, fn, blk, succ)
		}
	}
}
