package align_test

// Direct coverage of the branch-patching paths — conditional-branch
// inversion, fixup-jump arrangement for fully displaced conditionals, and
// switch fall-through (default motion) — with round-trip equivalence
// pinned by the independent emitted-form model in internal/check.

import (
	"context"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/check"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/testutil"
)

// condModule is a conditional diamond:
//
//	b0: condbr r0 -> b1 (then), b2 (else)
//	b1: br b3
//	b2: br b3
//	b3: ret 0
func condModule() *ir.Module {
	f := &ir.Func{
		Name:    "diamond",
		Params:  []ir.ParamKind{ir.ParamScalar},
		NumRegs: 1,
		Blocks: []*ir.Block{
			{ID: 0, Term: ir.Terminator{Kind: ir.TermCondBr, Cond: ir.RegVal(0), Succs: []int{1, 2}}},
			{ID: 1, Term: ir.Terminator{Kind: ir.TermBr, Succs: []int{3}}},
			{ID: 2, Term: ir.Terminator{Kind: ir.TermBr, Succs: []int{3}}},
			{ID: 3, Term: ir.Terminator{Kind: ir.TermRet, Val: ir.ConstVal(0)}},
		},
	}
	return &ir.Module{Funcs: []*ir.Func{f}, EntryFunc: 0}
}

// switchModule dispatches on r0 (cases 0 and 1, then default):
//
//	b0: switch r0 -> b1 (case 0), b2 (case 1), b3 (default)
//	b1, b2, b3: br b4
//	b4: ret 0
func switchModule() *ir.Module {
	f := &ir.Func{
		Name:    "dispatch",
		Params:  []ir.ParamKind{ir.ParamScalar},
		NumRegs: 1,
		Blocks: []*ir.Block{
			{ID: 0, Term: ir.Terminator{Kind: ir.TermSwitch, Cond: ir.RegVal(0),
				Succs: []int{1, 2, 3}, Cases: []int64{0, 1}}},
			{ID: 1, Term: ir.Terminator{Kind: ir.TermBr, Succs: []int{4}}},
			{ID: 2, Term: ir.Terminator{Kind: ir.TermBr, Succs: []int{4}}},
			{ID: 3, Term: ir.Terminator{Kind: ir.TermBr, Succs: []int{4}}},
			{ID: 4, Term: ir.Terminator{Kind: ir.TermRet, Val: ir.ConstVal(0)}},
		},
	}
	return &ir.Module{Funcs: []*ir.Func{f}, EntryFunc: 0}
}

// runProfile profiles mod by running it once per scalar input.
func runProfile(t *testing.T, mod *ir.Module, inputs ...int64) *interp.Profile {
	t.Helper()
	prof := interp.NewProfile(mod)
	for _, x := range inputs {
		if _, err := interp.Run(mod, []interp.Input{interp.ScalarInput(x)}, interp.Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
	}
	return prof
}

// finalize builds a FuncLayout for the entry function from a block order.
func finalize(mod *ir.Module, prof *interp.Profile, order []int, m machine.Model) *layout.FuncLayout {
	return layout.Finalize(mod.Funcs[0], prof.Funcs[0], order, m)
}

// TestCondBrInversion: when the then-successor falls through, the emitted
// branch must test the negated condition and target the else-successor;
// when the else-successor falls through, the branch keeps its sense. Both
// arrangements must round-trip through the equivalence checker.
func TestCondBrInversion(t *testing.T) {
	mod := condModule()
	f := mod.Funcs[0]
	prof := runProfile(t, mod, 1, 1, 0)
	m := machine.Alpha21164()

	cases := []struct {
		name       string
		order      []int
		wantTarget int
		wantInvert bool
	}{
		{"then-falls-through", []int{0, 1, 2, 3}, 2, true},
		{"else-falls-through", []int{0, 2, 1, 3}, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl := finalize(mod, prof, tc.order, m)
			em := check.Emit(f, fl)
			eb := em.Blocks[0]
			if eb.CondTarget != tc.wantTarget || eb.CondInverted != tc.wantInvert {
				t.Errorf("emitted condbr: target b%d inverted=%v, want b%d inverted=%v",
					eb.CondTarget, eb.CondInverted, tc.wantTarget, tc.wantInvert)
			}
			if eb.Fixup >= 0 {
				t.Errorf("adjacent conditional emitted a fixup jump to b%d", eb.Fixup)
			}
			if r := check.VerifyEmitted(f, fl, em); !r.OK() {
				t.Errorf("round-trip failed:\n%s", r.String())
			}
		})
	}
}

// TestDisplacedCondBrFixup: with both successors displaced, the emitted
// branch needs a fixup jump; Finalize must pick the cheaper of the two
// arrangements (branch to the predicted successor vs. invert and branch
// to the other), and *both* arrangements must remain semantically
// equivalent to the CFG — they differ only in cost.
func TestDisplacedCondBrFixup(t *testing.T) {
	mod := condModule()
	f := mod.Funcs[0]
	// 10 taken (then, b1) vs 3 not-taken (else, b2): keep = 10*1 + 3*(5+2)
	// = 31 beats invert = 10*2 + 3*5 = 35 on the Alpha model.
	prof := runProfile(t, mod, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0)
	m := machine.Alpha21164()
	fl := finalize(mod, prof, []int{0, 3, 1, 2}, m)

	if fl.Pred[0] != 0 {
		t.Fatalf("Pred[0] = %d, want 0 (then-successor is hotter)", fl.Pred[0])
	}
	if !fl.FixupTaken[0] {
		t.Error("Finalize chose the inverted arrangement despite keep being cheaper")
	}
	em := check.Emit(f, fl)
	eb := em.Blocks[0]
	if eb.CondTarget != 1 || eb.Fixup != 2 || eb.CondInverted {
		t.Errorf("keep arrangement emitted (target b%d, fixup b%d, inverted %v), want (b1, b2, false)",
			eb.CondTarget, eb.Fixup, eb.CondInverted)
	}
	if r := check.VerifyEmitted(f, fl, em); !r.OK() {
		t.Errorf("keep arrangement round-trip failed:\n%s", r.String())
	}
	keepCost := layout.Penalty(f, fl, prof.Funcs[0], m)

	// Flip the arrangement: still equivalent, strictly more expensive.
	fl.FixupTaken[0] = false
	em = check.Emit(f, fl)
	eb = em.Blocks[0]
	if eb.CondTarget != 2 || eb.Fixup != 1 || !eb.CondInverted {
		t.Errorf("inverted arrangement emitted (target b%d, fixup b%d, inverted %v), want (b2, b1, true)",
			eb.CondTarget, eb.Fixup, eb.CondInverted)
	}
	if r := check.VerifyEmitted(f, fl, em); !r.OK() {
		t.Errorf("inverted arrangement round-trip failed:\n%s", r.String())
	}
	if flipCost := layout.Penalty(f, fl, prof.Funcs[0], m); flipCost <= keepCost {
		t.Errorf("flipped arrangement cost %d not above finalized cost %d", flipCost, keepCost)
	}
}

// TestSwitchDefaultMotion: moving the default target up to fall through
// directly after the switch (and, symmetrically, a case target) must
// leave the emitted dispatch table identical to the CFG — the table is
// never patched, only the surrounding layout moves — and the layout that
// lets the hot successor fall through must cost less.
func TestSwitchDefaultMotion(t *testing.T) {
	mod := switchModule()
	f := mod.Funcs[0]
	// Default (inputs outside {0,1}) dominates: 8 default, 2 case-0, 1 case-1.
	prof := runProfile(t, mod, 7, 9, 5, 4, 3, 8, 6, 2, 0, 0, 1)
	m := machine.Alpha21164()

	if p := layout.Predictions(f, prof.Funcs[0])[0]; p != 2 {
		t.Fatalf("Pred[0] = %d, want 2 (default is hottest)", p)
	}
	defaultFirst := finalize(mod, prof, []int{0, 3, 1, 2, 4}, m) // default falls through
	caseFirst := finalize(mod, prof, []int{0, 1, 2, 3, 4}, m)    // cold case 0 falls through
	for name, fl := range map[string]*layout.FuncLayout{"default-first": defaultFirst, "case-first": caseFirst} {
		em := check.Emit(f, fl)
		tbl := em.Blocks[0].Table
		if len(tbl) != 3 || tbl[0] != 1 || tbl[1] != 2 || tbl[2] != 3 {
			t.Errorf("%s: emitted switch table %v, want [1 2 3]", name, tbl)
		}
		if r := check.VerifyEmitted(f, fl, em); !r.OK() {
			t.Errorf("%s: round-trip failed:\n%s", name, r.String())
		}
	}
	// Isolating the switch block's own transfer cost (the moved default
	// also displaces its continuation jump, so whole-function penalties
	// would conflate the two effects): letting the hot predicted default
	// fall through saves MultiCorrectTaken on each of its executions.
	fp := prof.Funcs[0]
	hot := layout.SuccessorCost(f, fp, defaultFirst.Pred, 0, 3, m)
	cold := layout.SuccessorCost(f, fp, caseFirst.Pred, 0, 1, m)
	if hot >= cold {
		t.Errorf("hot-default fall-through cost %d not below cold-case fall-through cost %d", hot, cold)
	}
}

// TestAlignerLayoutsRoundTrip: every aligner's layout of a workload that
// exercises every terminator kind must round-trip through the emitted-form
// equivalence checker, and the optimizing aligners must actually exercise
// the patching machinery (at least one inversion and one fixup among
// them) — otherwise this test would pass vacuously.
func TestAlignerLayoutsRoundTrip(t *testing.T) {
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource, testutil.BranchyInput(400, 7))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Alpha21164()
	inversions, fixups := 0, 0
	for _, a := range []align.Aligner{align.Original{}, align.PettisHansen{}, &align.CalderGrunwald{}, align.APPatch{}, align.TSP{}} {
		l := align.Run(context.Background(), a, mod, prof, m, align.RunOptions{Seed: 1}).Layout
		for fi, f := range mod.Funcs {
			fl := l.Funcs[fi]
			em := check.Emit(f, fl)
			if r := check.VerifyEmitted(f, fl, em); !r.OK() {
				t.Errorf("%s/%s: round-trip failed:\n%s", a.Name(), f.Name, r.String())
			}
			for _, eb := range em.Blocks {
				if eb.CondInverted {
					inversions++
				}
				if eb.Fixup >= 0 {
					fixups++
				}
			}
		}
	}
	if inversions == 0 {
		t.Error("no aligner layout inverted any conditional branch — inversion path not exercised")
	}
	if fixups == 0 {
		t.Log("no fixup jumps among aligner layouts (acceptable: fixups are rare on this workload)")
	}
}
