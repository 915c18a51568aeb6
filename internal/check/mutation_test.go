package check_test

import (
	"strings"
	"testing"

	"branchalign/internal/check"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/testutil"
)

// Mutation tests: every checker class must fire on a seeded violation of
// its invariant. Together with TestVetAllBenchmarks (zero violations on
// healthy artifacts) this pins both directions of the checker's
// soundness.

// byClass returns the report's findings of one class.
func byClass(r *check.Report, c check.Class) []check.Issue {
	var out []check.Issue
	for _, f := range r.Findings {
		if f.Class == c {
			out = append(out, f)
		}
	}
	return out
}

// hasClass reports whether the report contains a finding of the class.
func hasClass(r *check.Report, c check.Class) bool {
	return len(byClass(r, c)) > 0
}

// diamondModule builds a hand-rolled module with a conditional diamond:
//
//	b0: condbr r0 -> b1, b2
//	b1: br b3
//	b2: br b3
//	b3: ret 0
func diamondModule() *ir.Module {
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

// diamondProfile profiles the diamond by running it once per input.
func diamondProfile(t *testing.T, mod *ir.Module, inputs ...int64) *interp.Profile {
	t.Helper()
	prof := interp.NewProfile(mod)
	for _, x := range inputs {
		if _, err := interp.Run(mod, []interp.Input{interp.ScalarInput(x)}, interp.Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
	}
	return prof
}

func TestFlowConservationCatchesTamperedEdgeCount(t *testing.T) {
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource,
		[]interp.Input{interp.ArrayInput([]int64{3, 1, 4, 1, 5, 9}), interp.ScalarInput(6)})
	if err != nil {
		t.Fatal(err)
	}
	if r := check.Flow(mod, prof); !r.OK() {
		t.Fatalf("healthy profile flagged:\n%s", r.String())
	}

	// Seed: inflate one executed edge count. Kirchhoff breaks at the
	// source block (outgoing > block count) and at the target (incoming >
	// block count).
	for fi := range mod.Funcs {
		fp := prof.Funcs[fi]
		for b := range fp.EdgeCounts {
			for si := range fp.EdgeCounts[b] {
				if fp.EdgeCounts[b][si] > 0 {
					fp.EdgeCounts[b][si]++
					r := check.Flow(mod, prof)
					if r.OK() || !hasClass(r, check.ClassFlow) {
						t.Fatalf("tampered edge (%d/b%d/%d) not caught:\n%s", fi, b, si, r.String())
					}
					fp.EdgeCounts[b][si]--
					return
				}
			}
		}
	}
	t.Fatal("no executed edge found to tamper with")
}

func TestFlowConservationCatchesPhantomCalls(t *testing.T) {
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource,
		[]interp.Input{interp.ArrayInput([]int64{2, 7}), interp.ScalarInput(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Seed: record calls to a non-entry function that never entered.
	for fi := range mod.Funcs {
		if fi == mod.EntryFunc {
			continue
		}
		prof.CallCounts[mod.EntryFunc][fi] += 5
		r := check.Flow(mod, prof)
		if r.OK() || !hasClass(r, check.ClassFlow) {
			t.Fatalf("phantom call count not caught:\n%s", r.String())
		}
		return
	}
}

func TestPermutationValidityCatchesBrokenOrders(t *testing.T) {
	mod := diamondModule()
	prof := diamondProfile(t, mod, 1, 1, 0)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	if r := check.Layouts(mod, prof, l, m); !r.OK() {
		t.Fatalf("healthy layout flagged:\n%s", r.String())
	}

	seed := func(mutate func(fl *layout.FuncLayout)) *check.Report {
		l := layout.Identity(mod, prof, m)
		mutate(l.Funcs[0])
		return check.Layouts(mod, prof, l, m)
	}
	cases := map[string]func(fl *layout.FuncLayout){
		"duplicate block": func(fl *layout.FuncLayout) { fl.Order[2] = fl.Order[1] },
		"entry not first": func(fl *layout.FuncLayout) { fl.Order[0], fl.Order[1] = fl.Order[1], fl.Order[0] },
		"truncated order": func(fl *layout.FuncLayout) { fl.Order = fl.Order[:3] },
		"out of range":    func(fl *layout.FuncLayout) { fl.Order[3] = 99 },
		"bad prediction":  func(fl *layout.FuncLayout) { fl.Pred[0] = 7 },
		"ret predicted":   func(fl *layout.FuncLayout) { fl.Pred[3] = 0 },
	}
	for name, mutate := range cases {
		r := seed(mutate)
		if r.OK() || !hasClass(r, check.ClassPermutation) {
			t.Errorf("%s: not caught:\n%s", name, r.String())
		}
	}
}

func TestPatchEquivalenceCatchesRetargetedBranches(t *testing.T) {
	mod := diamondModule()
	prof := diamondProfile(t, mod, 1, 1, 0)
	m := machine.Alpha21164()
	f := mod.Funcs[0]
	// Order [0 3 1 2] fully displaces the conditional: b3 separates b0
	// from both successors, so the emitted form needs a fixup jump.
	fl := layout.Finalize(f, prof.Funcs[0], []int{0, 3, 1, 2}, m)

	em := check.Emit(f, fl)
	if em.Blocks[0].Fixup < 0 {
		t.Fatal("expected a fixup jump on the displaced conditional")
	}
	if r := check.VerifyEmitted(f, fl, em); !r.OK() {
		t.Fatalf("healthy emitted form flagged:\n%s", r.String())
	}

	seed := func(mutate func(em *check.EmittedFunc)) *check.Report {
		em := check.Emit(f, fl)
		mutate(em)
		return check.VerifyEmitted(f, fl, em)
	}
	cases := map[string]func(em *check.EmittedFunc){
		// A patching bug that redirects the conditional's taken target.
		"cond retargeted": func(em *check.EmittedFunc) { em.Blocks[0].CondTarget = 3 },
		// A lost inversion flag: the recovered (then, else) pair swaps.
		"inversion lost": func(em *check.EmittedFunc) { em.Blocks[0].CondInverted = !em.Blocks[0].CondInverted },
		// A dropped fixup: control would fall through into b3, which is
		// not a successor of the conditional.
		"fixup dropped": func(em *check.EmittedFunc) { em.Blocks[0].Fixup = -1 },
		// A retargeted unconditional jump.
		"jump retargeted": func(em *check.EmittedFunc) { em.Blocks[1].Jump = 2 },
		// An elided jump that actually needed materializing: b1 would
		// fall through into b2 instead of reaching b3.
		"jump elided": func(em *check.EmittedFunc) { em.Blocks[1].Jump = -1 },
	}
	for name, mutate := range cases {
		r := seed(mutate)
		if r.OK() || !hasClass(r, check.ClassPatch) {
			t.Errorf("%s: not caught:\n%s", name, r.String())
		}
	}
}

func TestPatchEquivalenceCatchesSwitchRetargeting(t *testing.T) {
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource,
		[]interp.Input{interp.ArrayInput([]int64{0, 1, 2, 3, 4}), interp.ScalarInput(5)})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	for fi, f := range mod.Funcs {
		for b, blk := range f.Blocks {
			if blk.Term.Kind != ir.TermSwitch {
				continue
			}
			em := check.Emit(f, l.Funcs[fi])
			em.Blocks[b].Table[0], em.Blocks[b].Table[1] = em.Blocks[b].Table[1], em.Blocks[b].Table[0]
			r := check.VerifyEmitted(f, l.Funcs[fi], em)
			if blk.Term.Succs[0] != blk.Term.Succs[1] && (r.OK() || !hasClass(r, check.ClassPatch)) {
				t.Fatalf("swapped switch targets not caught:\n%s", r.String())
			}
			return
		}
	}
	t.Fatal("no switch found in BranchySource")
}

func TestCostRecomputationCatchesWrongFixupArrangement(t *testing.T) {
	mod := diamondModule()
	// Asymmetric counts: 10 then-edges, 3 else-edges. Under Alpha21164
	// the two fixup arrangements then cost 31 vs 35 cycles, so flipping
	// the layout's choice must desynchronize the two cost paths.
	inputs := make([]int64, 0, 13)
	for i := 0; i < 10; i++ {
		inputs = append(inputs, 1)
	}
	inputs = append(inputs, 0, 0, 0)
	prof := diamondProfile(t, mod, inputs...)
	m := machine.Alpha21164()
	f := mod.Funcs[0]
	fl := layout.Finalize(f, prof.Funcs[0], []int{0, 3, 1, 2}, m)
	if r := check.Cost(f, prof.Funcs[0], fl, m); !r.OK() {
		t.Fatalf("healthy cost bookkeeping flagged:\n%s", r.String())
	}

	fl.FixupTaken[0] = !fl.FixupTaken[0]
	r := check.Cost(f, prof.Funcs[0], fl, m)
	if r.OK() || !hasClass(r, check.ClassCost) {
		t.Fatalf("flipped fixup arrangement not caught:\n%s", r.String())
	}
}

func TestPlacementCatchesTamperedAddresses(t *testing.T) {
	mod := diamondModule()
	prof := diamondProfile(t, mod, 1, 0)
	m := machine.Alpha21164()
	f := mod.Funcs[0]
	fl := layout.Finalize(f, prof.Funcs[0], []int{0, 3, 1, 2}, m)

	seed := func(mutate func(pf *layout.PlacedFunc)) *check.Report {
		pf := layout.PlaceFunc(f, fl, 0)
		mutate(pf)
		return check.Placement(f, fl, pf)
	}
	if r := seed(func(*layout.PlacedFunc) {}); !r.OK() {
		t.Fatalf("healthy placement flagged:\n%s", r.String())
	}
	cases := map[string]func(pf *layout.PlacedFunc){
		"overlapping blocks": func(pf *layout.PlacedFunc) { pf.Addr[1]-- },
		"wrong size":         func(pf *layout.PlacedFunc) { pf.Size[2]++ },
		"displaced fixup":    func(pf *layout.PlacedFunc) { pf.FixupAddr[0]++ },
		"phantom fixup":      func(pf *layout.PlacedFunc) { pf.FixupAddr[1] = 7 },
		"wrong end":          func(pf *layout.PlacedFunc) { pf.End += 3 },
	}
	for name, mutate := range cases {
		r := seed(mutate)
		if r.OK() || !hasClass(r, check.ClassPlacement) {
			t.Errorf("%s: not caught:\n%s", name, r.String())
		}
	}
}

func TestBoundChainCatchesInvertedBounds(t *testing.T) {
	// Healthy: ap <= hk <= tour.
	if r := check.BoundChain("f", 5, 8, 12); !r.OK() || len(r.Findings) != 0 {
		t.Fatalf("healthy chain flagged:\n%s", r.String())
	}
	// A claimed tour below the AP bound breaks the chain twice.
	r := check.BoundChain("f", 10, 12, 7)
	if r.Errors() != 2 || !hasClass(r, check.ClassBounds) {
		t.Fatalf("inverted chain not caught:\n%s", r.String())
	}
	// An AP bound above HK is only a convergence warning.
	r = check.BoundChain("f", 9, 6, 20)
	if r.Errors() != 0 || r.Warnings() != 1 {
		t.Fatalf("AP > HK should be a warning:\n%s", r.String())
	}
}

func TestUseBeforeDefCatchesUndefinedRead(t *testing.T) {
	// r2 is read in b0 but never written anywhere; r0 is a parameter and
	// therefore fine.
	f := &ir.Func{
		Name:    "ubd",
		Params:  []ir.ParamKind{ir.ParamScalar},
		NumRegs: 3,
		Blocks: []*ir.Block{
			{ID: 0, Instrs: []ir.Instr{
				{Kind: ir.InstrBin, Dst: 1, Op: ir.OpAdd, A: ir.RegVal(0), B: ir.RegVal(2)},
			}, Term: ir.Terminator{Kind: ir.TermRet, Val: ir.RegVal(1)}},
		},
	}
	mod := &ir.Module{Funcs: []*ir.Func{f}, EntryFunc: 0}
	r := check.Module(mod)
	found := byClass(r, check.ClassUseBeforeDef)
	if len(found) != 1 || !strings.Contains(found[0].Msg, "r2") {
		t.Fatalf("use of undefined r2 not caught:\n%s", r.String())
	}
}

func TestUseBeforeDefRequiresAllPathsDefined(t *testing.T) {
	// r1 is defined on the then-path only; the else-path reaches the use
	// with r1 undefined, so the must-defined analysis flags it. After
	// adding the else-path definition the finding disappears.
	build := func(defineOnElse bool) *ir.Module {
		elseInstrs := []ir.Instr{}
		if defineOnElse {
			elseInstrs = append(elseInstrs, ir.Instr{Kind: ir.InstrConst, Dst: 1, A: ir.ConstVal(7)})
		}
		f := &ir.Func{
			Name:    "paths",
			Params:  []ir.ParamKind{ir.ParamScalar},
			NumRegs: 2,
			Blocks: []*ir.Block{
				{ID: 0, Term: ir.Terminator{Kind: ir.TermCondBr, Cond: ir.RegVal(0), Succs: []int{1, 2}}},
				{ID: 1, Instrs: []ir.Instr{{Kind: ir.InstrConst, Dst: 1, A: ir.ConstVal(3)}},
					Term: ir.Terminator{Kind: ir.TermBr, Succs: []int{3}}},
				{ID: 2, Instrs: elseInstrs, Term: ir.Terminator{Kind: ir.TermBr, Succs: []int{3}}},
				{ID: 3, Term: ir.Terminator{Kind: ir.TermRet, Val: ir.RegVal(1)}},
			},
		}
		return &ir.Module{Funcs: []*ir.Func{f}, EntryFunc: 0}
	}
	if r := check.Module(build(false)); len(byClass(r, check.ClassUseBeforeDef)) == 0 {
		t.Fatalf("partially defined register not caught:\n%s", r.String())
	}
	if r := check.Module(build(true)); len(byClass(r, check.ClassUseBeforeDef)) != 0 {
		t.Fatalf("fully defined register flagged:\n%s", r.String())
	}
}

func TestDataflowLintsUnreachableAndDeadStores(t *testing.T) {
	f := &ir.Func{
		Name:    "lints",
		NumRegs: 2,
		Blocks: []*ir.Block{
			{ID: 0, Instrs: []ir.Instr{
				{Kind: ir.InstrConst, Dst: 1, A: ir.ConstVal(1)}, // dead: overwritten below
				{Kind: ir.InstrConst, Dst: 1, A: ir.ConstVal(2)},
			}, Term: ir.Terminator{Kind: ir.TermRet, Val: ir.RegVal(1)}},
			{ID: 1, Term: ir.Terminator{Kind: ir.TermBr, Succs: []int{0}}}, // unreachable
		},
	}
	mod := &ir.Module{Funcs: []*ir.Func{f}, EntryFunc: 0}
	r := check.Module(mod)
	if len(byClass(r, check.ClassDeadStore)) != 1 {
		t.Errorf("dead store not caught exactly once:\n%s", r.String())
	}
	if len(byClass(r, check.ClassUnreachable)) != 1 {
		t.Errorf("unreachable block not caught exactly once:\n%s", r.String())
	}
	if !r.OK() {
		t.Errorf("lints must be warnings, got errors:\n%s", r.String())
	}
}

func TestStructureCheckWrapsIRVerify(t *testing.T) {
	mod := diamondModule()
	mod.Funcs[0].Blocks[1].Term.Succs[0] = 42
	r := check.Module(mod)
	if r.OK() || !hasClass(r, check.ClassStructure) {
		t.Fatalf("malformed IR not caught:\n%s", r.String())
	}
}

func TestReportAccounting(t *testing.T) {
	mod := diamondModule()
	prof := diamondProfile(t, mod, 1, 0)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	r := check.Module(mod)
	r.Merge(check.Flow(mod, prof))
	r.Merge(check.Layouts(mod, prof, l, m))
	r.Merge(check.Bounds(mod, prof, l, m, check.BoundsOptions{}))
	if !r.OK() || r.Err() != nil {
		t.Fatalf("healthy pipeline flagged: %v\n%s", r.Err(), r.String())
	}

	l.Funcs[0].Order[2], l.Funcs[0].Order[3] = l.Funcs[0].Order[3], l.Funcs[0].Order[2]
	l.Funcs[0].Pred[0] = 5
	broken := check.Layouts(mod, prof, l, m)
	if broken.OK() || broken.Err() == nil {
		t.Fatal("broken layout must produce a report error")
	}
	if got := broken.Errors() + broken.Warnings(); got != len(broken.Findings) {
		t.Errorf("severity accounting inconsistent: %d+%d != %d", broken.Errors(), broken.Warnings(), len(broken.Findings))
	}
	if !strings.Contains(broken.String(), "error") {
		t.Errorf("String() misses severity: %q", broken.String())
	}
}
