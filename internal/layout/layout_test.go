package layout_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/testutil"
)

func compileBranchy(t *testing.T) (*ir.Module, *interp.Profile) {
	t.Helper()
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource, testutil.BranchyInput(400, 7))
	if err != nil {
		t.Fatal(err)
	}
	return mod, prof
}

// randomOrder returns a random valid block order (entry first).
func randomOrder(nBlocks int, rng *rand.Rand) []int {
	order := make([]int, nBlocks)
	for i := range order {
		order[i] = i
	}
	rest := order[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return order
}

func TestIdentityLayoutValidates(t *testing.T) {
	mod, prof := compileBranchy(t)
	l := layout.Identity(mod, prof, machine.Alpha21164())
	if err := l.Validate(mod); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadLayouts(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	f0 := mod.Funcs[0]
	if len(f0.Blocks) < 3 {
		t.Skip("first function too small")
	}
	// Entry not first.
	bad := *l.Funcs[0]
	bad.Order = append([]int(nil), l.Funcs[0].Order...)
	bad.Order[0], bad.Order[1] = bad.Order[1], bad.Order[0]
	if err := bad.Validate(f0); err == nil {
		t.Error("expected error for entry not first")
	}
	// Duplicate block.
	bad2 := *l.Funcs[0]
	bad2.Order = append([]int(nil), l.Funcs[0].Order...)
	bad2.Order[1] = bad2.Order[2]
	if err := bad2.Validate(f0); err == nil {
		t.Error("expected error for duplicate block")
	}
	// Wrong length.
	bad3 := *l.Funcs[0]
	bad3.Order = bad3.Order[:len(bad3.Order)-1]
	if err := bad3.Validate(f0); err == nil {
		t.Error("expected error for truncated order")
	}
}

func TestPredictionsPickHottestSuccessor(t *testing.T) {
	mod, prof, _, err := testutil.CompileAndProfile(`
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
`, []interp.Input{interp.ScalarInput(50)})
	if err != nil {
		t.Fatal(err)
	}
	f := mod.Funcs[mod.EntryFunc]
	pred := layout.Predictions(f, prof.Funcs[mod.EntryFunc])
	for b, blk := range f.Blocks {
		switch blk.Term.Kind {
		case ir.TermRet:
			if pred[b] != -1 {
				t.Errorf("ret block b%d predicted %d", b, pred[b])
			}
		case ir.TermCondBr:
			hot, _ := testutil.HottestSuccessor(prof.Funcs[mod.EntryFunc], b)
			if pred[b] != hot {
				t.Errorf("block b%d: pred %d != hottest %d", b, pred[b], hot)
			}
		}
	}
}

// TestIdentityPenaltyMatchesHandComputation pins the cost semantics on a
// tiny hand-analyzable CFG.
func TestIdentityPenaltyMatchesHandComputation(t *testing.T) {
	// Loop runs 10 iterations: loop-head conditional executes 11 times
	// (10 into body, 1 exit).
	mod, prof, _, err := testutil.CompileAndProfile(`
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) { s = s + 1; }
	return s;
}
`, []interp.Input{interp.ScalarInput(10)})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	got := layout.ModulePenalty(mod, l, prof, m)
	// Lowered CFG (identity order): entry(b0) -> head(b1) -cond-> body(b2)/exit(b4);
	// body -> post(b3) -> head; exit -> ret.
	// In identity order b1's layout successor is b2 (the hot side, 10 execs,
	// predicted): fall-through correct = 0; the single exit execution is a
	// mispredicted taken branch: 5.
	// b2 -> b3 falls through: 0. b3 -> b1 is a displaced unconditional jump
	// executed 10 times: 10 * 2 = 20. Entry falls into b1: 0.
	// Total = 5 + 20 = 25.
	if got != 25 {
		f := mod.Funcs[mod.EntryFunc]
		t.Fatalf("identity penalty = %d, want 25\nCFG:\n%s", got, f.Body())
	}
	// An optimal order places the loop body as the head's fall-through and
	// sinks the exit: rotating the loop (b0 b1 b2 b3 b4 is already it) —
	// here identity is already good except nothing to improve: the 10x
	// back edge jump is unavoidable for b3->b1 unless b1 follows b3, which
	// conflicts with entry placement... so the TSP aligner should find
	// penalty <= 25.
}

// TestWalkCostEqualsPenalty is the reduction-correctness invariant from
// DESIGN.md: for any order, the DTSP walk cost of the corresponding tour
// equals the independently evaluated layout penalty on the training
// profile. (The matrix-building side lives in package align; this test
// checks the layout side against a re-derivation through SuccessorCost.)
func TestWalkCostEqualsPenalty(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	rng := rand.New(rand.NewSource(99))
	for fi, f := range mod.Funcs {
		fp := prof.Funcs[fi]
		pred := layout.Predictions(f, fp)
		for trial := 0; trial < 25; trial++ {
			order := randomOrder(len(f.Blocks), rng)
			fl := layout.Finalize(f, fp, order, m)
			if err := fl.Validate(f); err != nil {
				t.Fatalf("func %d trial %d: %v", fi, trial, err)
			}
			// Walk cost: sum of SuccessorCost along the order, with the
			// last block paying the end-of-layout cost.
			var walk layout.Cost
			for k := 0; k < len(order); k++ {
				x := -1
				if k+1 < len(order) {
					x = order[k+1]
				}
				walk += layout.SuccessorCost(f, fp, pred, order[k], x, m)
			}
			pen := layout.Penalty(f, fl, fp, m)
			if walk != pen {
				t.Fatalf("func %d (%s) trial %d: walk cost %d != penalty %d (order %v)",
					fi, f.Name, trial, walk, pen, order)
			}
		}
	}
}

// TestCrossProfilePenaltyUsesRecordedDecisions verifies that evaluating a
// layout against a different profile uses the training-time predictions:
// training on an input that biases a branch one way and testing on the
// opposite bias must charge mispredicts for the now-common path.
func TestCrossProfilePenaltyUsesRecordedDecisions(t *testing.T) {
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
	mod, err := testutil.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int64, 100)
	neg := make([]int64, 100)
	for i := range pos {
		pos[i] = 5
		neg[i] = -5
	}
	posProf := interp.NewProfile(mod)
	if _, err := interp.Run(mod, []interp.Input{interp.ArrayInput(pos), interp.ScalarInput(100)}, interp.Options{Profile: posProf}); err != nil {
		t.Fatal(err)
	}
	negProf := interp.NewProfile(mod)
	if _, err := interp.Run(mod, []interp.Input{interp.ArrayInput(neg), interp.ScalarInput(100)}, interp.Options{Profile: negProf}); err != nil {
		t.Fatal(err)
	}
	m := machine.Alpha21164()
	l := layout.Identity(mod, posProf, m) // trained on positive bias
	self := layout.ModulePenalty(mod, l, posProf, m)
	cross := layout.ModulePenalty(mod, l, negProf, m)
	if cross <= self {
		t.Errorf("cross-profile penalty %d should exceed self penalty %d (reversed branch bias)", cross, self)
	}
}

func TestPlaceFuncAddressing(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	pm := layout.PlaceModule(mod, l)
	if len(pm.Funcs) != len(mod.Funcs) {
		t.Fatalf("placed %d funcs, want %d", len(pm.Funcs), len(mod.Funcs))
	}
	prevEnd := int64(0)
	for fi, pf := range pm.Funcs {
		f := mod.Funcs[fi]
		if pf.Base < prevEnd {
			t.Fatalf("func %d overlaps previous (base %d < end %d)", fi, pf.Base, prevEnd)
		}
		if pf.Base%layout.FuncAlignment != 0 {
			t.Errorf("func %d base %d not aligned", fi, pf.Base)
		}
		prevEnd = pf.End
		// Blocks tile the function without gaps or overlaps, in layout
		// order.
		cur := pf.Base
		for _, b := range l.Funcs[fi].Order {
			if pf.Addr[b] != cur {
				t.Fatalf("func %d block b%d at %d, expected %d", fi, b, pf.Addr[b], cur)
			}
			cur += pf.Size[b]
			if pf.FixupAddr[b] >= 0 {
				if pf.FixupAddr[b] != cur {
					t.Fatalf("func %d block b%d fixup at %d, expected %d", fi, b, pf.FixupAddr[b], cur)
				}
				cur++
			}
			// Size sanity: at least the instruction count.
			if pf.Size[b] < int64(len(f.Blocks[b].Instrs)) {
				t.Fatalf("block size smaller than instruction count")
			}
		}
		if cur != pf.End {
			t.Fatalf("func %d: blocks end at %d, End = %d", fi, cur, pf.End)
		}
	}
	if got := codeSize(pm); got != prevEnd {
		t.Errorf("code size = %d, want %d", got, prevEnd)
	}
}

func TestPlacementElidesFallthroughJumps(t *testing.T) {
	// A block ending in Br whose target follows it has no jump slot; the
	// same block displaced gains one.
	mod, prof, _, err := testutil.CompileAndProfile(`
func main(n) {
	var s = 0;
	if (n > 0) { s = 1; } else { s = 2; }
	return s;
}
`, []interp.Input{interp.ScalarInput(1)})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Alpha21164()
	f := mod.Funcs[mod.EntryFunc]
	fp := prof.Funcs[mod.EntryFunc]
	idOrder := make([]int, len(f.Blocks))
	for i := range idOrder {
		idOrder[i] = i
	}
	id := layout.Finalize(f, fp, idOrder, m)
	pfID := layout.PlaceFunc(f, id, 0)
	// Find a Br block whose target is its layout successor under identity.
	succ := id.LayoutSuccessors(f)
	var brBlock = -1
	for b, blk := range f.Blocks {
		if blk.Term.Kind == ir.TermBr && blk.Term.Succs[0] == succ[b] {
			brBlock = b
			break
		}
	}
	if brBlock < 0 {
		t.Skip("no fall-through Br block in identity order")
	}
	sizeFallthrough := pfID.Size[brBlock]
	// Move that block to the end: it must now carry a jump slot.
	order := []int{0}
	for i := 1; i < len(f.Blocks); i++ {
		if i != brBlock {
			order = append(order, i)
		}
	}
	if brBlock != 0 {
		order = append(order, brBlock)
	}
	moved := layout.Finalize(f, fp, order, m)
	pfMoved := layout.PlaceFunc(f, moved, 0)
	if pfMoved.Size[brBlock] != sizeFallthrough+1 {
		t.Errorf("displaced Br block size = %d, want %d", pfMoved.Size[brBlock], sizeFallthrough+1)
	}
}

func TestExecEventFixupAccounting(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	rng := rand.New(rand.NewSource(5))
	// For random layouts, per-execution events aggregated over the profile
	// must equal Penalty.
	for fi, f := range mod.Funcs {
		fp := prof.Funcs[fi]
		order := randomOrder(len(f.Blocks), rng)
		fl := layout.Finalize(f, fp, order, m)
		succ := fl.LayoutSuccessors(f)
		var total layout.Cost
		for b, blk := range f.Blocks {
			if blk.Term.Kind == ir.TermRet {
				continue
			}
			for si := range blk.Term.Succs {
				ev := fl.Exec(f, b, si, succ[b], m)
				total += fp.EdgeCounts[b][si] * ev.Penalty
			}
		}
		if pen := layout.Penalty(f, fl, fp, m); pen != total {
			t.Fatalf("func %d: aggregated events %d != Penalty %d", fi, total, pen)
		}
	}
}

// TestTakenPathConsistentWithExec: reconstructing each event's penalty
// from TakenPath + the static prediction direction must reproduce Exec
// exactly, for random layouts. This is the contract the pipeline
// simulator's unified penalty computation relies on.
func TestTakenPathConsistentWithExec(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	rng := rand.New(rand.NewSource(77))
	for fi, f := range mod.Funcs {
		fp := prof.Funcs[fi]
		for trial := 0; trial < 10; trial++ {
			order := randomOrder(len(f.Blocks), rng)
			fl := layout.Finalize(f, fp, order, m)
			succ := fl.LayoutSuccessors(f)
			for b, blk := range f.Blocks {
				for si := range blk.Term.Succs {
					ev := fl.Exec(f, b, si, succ[b], m)
					taken, viaFixup := fl.TakenPath(f, b, si, succ[b])
					var pen layout.Cost
					switch blk.Term.Kind {
					case ir.TermBr:
						if taken {
							pen = m.JumpCost
						}
					case ir.TermCondBr:
						predictedTaken := fl.PredictedTaken(f, b, succ[b])
						switch {
						case predictedTaken == taken && taken:
							pen = m.CondTakenCorrect
						case predictedTaken == taken:
							pen = m.CondFallthroughCorrect
						default:
							pen = m.CondMispredict
						}
						if viaFixup {
							pen += m.JumpCost
						}
					case ir.TermSwitch:
						correct := si == fl.Pred[b]
						target := blk.Term.Succs[si]
						switch {
						case correct && target == succ[b]:
							pen = m.MultiCorrectFallthrough
						case correct:
							pen = m.MultiCorrectTaken
						default:
							pen = m.MultiMispredict
						}
					}
					if pen != ev.Penalty || viaFixup != ev.ViaFixup {
						t.Fatalf("func %d block %d si %d: TakenPath reconstruction (%d,%v) != Exec (%d,%v)",
							fi, b, si, pen, viaFixup, ev.Penalty, ev.ViaFixup)
					}
				}
			}
		}
	}
}

func TestLayoutJSONRoundTrip(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := layout.ReadLayoutJSON(&buf, mod)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range l.Funcs {
		for k := range l.Funcs[fi].Order {
			if back.Funcs[fi].Order[k] != l.Funcs[fi].Order[k] {
				t.Fatal("order changed in round trip")
			}
		}
		for b := range l.Funcs[fi].Pred {
			if back.Funcs[fi].Pred[b] != l.Funcs[fi].Pred[b] {
				t.Fatal("predictions changed in round trip")
			}
		}
	}
	// Penalties must be identical through the round trip.
	if layout.ModulePenalty(mod, back, prof, m) != layout.ModulePenalty(mod, l, prof, m) {
		t.Error("penalty changed through serialization")
	}
}

func TestReadLayoutJSONRejectsInvalid(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	// Corrupt: swap entry out of first position.
	l.Funcs[0].Order[0], l.Funcs[0].Order[1] = l.Funcs[0].Order[1], l.Funcs[0].Order[0]
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := layout.ReadLayoutJSON(&buf, mod); err == nil {
		t.Error("expected validation error for corrupted layout")
	}
	if _, err := layout.ReadLayoutJSON(strings.NewReader("not json"), mod); err == nil {
		t.Error("expected decode error")
	}
}

func TestExecRetChargesRetCost(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	f := mod.Funcs[0]
	for b, blk := range f.Blocks {
		if blk.Term.Kind != ir.TermRet {
			continue
		}
		ev := l.Funcs[0].Exec(f, b, -1, -1, m)
		if ev.Penalty != m.RetCost {
			t.Errorf("ret event penalty = %d, want %d", ev.Penalty, m.RetCost)
		}
	}
}
