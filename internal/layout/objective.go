package layout

// This file is the objective layer: the closed-form successor-cost row
// both cost surfaces (SuccessorCost, SuccessorCostRow) are derived
// from, and the ExtTSP objective — the extended-TSP score of Newell &
// Pupyrev (arXiv:1809.04676) that values short forward and backward
// jumps, not only fall-throughs. The control-penalty objective is a
// minimization over exact machine cycles; ExtTSP is a maximization over
// a smooth locality proxy. Both are pure functions of (ir.Func,
// interp.FuncProfile, block order), which is what lets the aligner
// family share one pipeline.

import (
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
)

// succArc is one exception to a successor-cost row's default: placing
// block To directly after the row's block costs Cost instead.
type succArc struct {
	To   int
	Cost Cost
}

// succRow computes one row of the paper's d(B, X) cost table in closed
// form: the row-constant default — the cost when the layout successor
// is any block the terminator does not target, which is also the
// end-of-layout cost d(B, -1) — plus at most two exception arcs (a
// conditional branch has two successors; every other terminator has at
// most one that matters). Duplicate successors keep first-match-wins
// semantics: when a conditional branch targets the same block both
// ways, only the fall-through-predicted arc is emitted, exactly as
// SuccessorCost's case order resolves it.
//
// Every cost surface derives from this row: SuccessorCost(b, x) is the
// first arc matching x (default when none matches), SuccessorCostRow
// appends the arcs to its caller's slices, and BuildSparseMatrix stores
// them as CSR exceptions.
func succRow(f *ir.Func, fp *interp.FuncProfile, pred []int, b int, m machine.Model) (def Cost, arcs [2]succArc, n int) {
	blk := f.Blocks[b]
	counts := fp.EdgeCounts[b]
	switch blk.Term.Kind {
	case ir.TermRet:
		return 0, arcs, 0
	case ir.TermBr:
		arcs[0] = succArc{To: blk.Term.Succs[0], Cost: 0}
		return counts[0] * m.JumpCost, arcs, 1
	case ir.TermCondBr:
		p := pred[b]
		nP, nO := counts[p], counts[1-p]
		def, _ = condDisplacedCost(nP, nO, m)
		sp, so := blk.Term.Succs[p], blk.Term.Succs[1-p]
		arcs[0] = succArc{To: sp, Cost: nP*m.CondFallthroughCorrect + nO*m.CondMispredict}
		n = 1
		if so != sp {
			arcs[1] = succArc{To: so, Cost: nP*m.CondTakenCorrect + nO*m.CondMispredict}
			n = 2
		}
		return def, arcs, n
	case ir.TermSwitch:
		p := pred[b]
		for si, cnt := range counts {
			if si == p {
				def += cnt * m.MultiCorrectTaken
			} else {
				def += cnt * m.MultiMispredict
			}
		}
		nP := counts[p]
		arcs[0] = succArc{
			To:   blk.Term.Succs[p],
			Cost: def - nP*m.MultiCorrectTaken + nP*m.MultiCorrectFallthrough,
		}
		return def, arcs, 1
	}
	return 0, arcs, 0
}

// The ExtTSP objective's weights and windows are the constants of
// arXiv:1809.04676 §3 (the values BOLT ships): fall-throughs at weight
// 1, short jumps at 0.1 with linear decay over a 1024-byte forward and
// 640-byte backward window. All windows are in bytes.
const (
	// extFallthroughWeight scores an arc whose target is laid out
	// exactly at the end of its source (distance zero).
	extFallthroughWeight = 1.0
	// extForwardWeight and extForwardWindow score an arc jumping
	// forward by 0 < d < extForwardWindow bytes as
	// extForwardWeight·(1 − d/extForwardWindow).
	extForwardWeight = 0.1
	extForwardWindow = 1024
	// extBackwardWeight and extBackwardWindow score an arc jumping
	// backward by 0 < d < extBackwardWindow bytes analogously.
	extBackwardWeight = 0.1
	extBackwardWindow = 640
)

// BlockBytes returns each block's byte size as the ExtTSP objective
// models it: the instruction count plus the terminator slot, times
// BytesPerSlot. This is deliberately layout-independent — the objective
// scores candidate orders, so it cannot know which unconditional
// branches will be elided or which fixup jumps inserted; it charges
// every block its worst-case emitted size instead (the same
// simplification BOLT makes).
func BlockBytes(f *ir.Func) []int {
	sizes := make([]int, len(f.Blocks))
	for b, blk := range f.Blocks {
		n := blk.Size()
		if blk.Term.Kind == ir.TermBr {
			n++ // a displaced TermBr materializes as a jump instruction
		}
		sizes[b] = n * BytesPerSlot
	}
	return sizes
}

// ArcScore is the ExtTSP kernel for one CFG arc executed w times whose
// source ends at byte srcEnd and whose target starts at byte dst. It is
// exported for the chain-merging aligner, whose gain computations score
// individual arcs under candidate chain offsets.
func ArcScore(w int64, srcEnd, dst int) float64 {
	switch {
	case dst == srcEnd:
		return float64(w) * extFallthroughWeight
	case dst > srcEnd:
		d := dst - srcEnd
		if d >= extForwardWindow {
			return 0
		}
		return float64(w) * extForwardWeight * (1 - float64(d)/extForwardWindow)
	default:
		d := srcEnd - dst
		if d >= extBackwardWindow {
			return 0
		}
		return float64(w) * extBackwardWeight * (1 - float64(d)/extBackwardWindow)
	}
}

// ExtTSPScore evaluates the ExtTSP objective of a block order: the sum
// over CFG arcs of weight·kernel(distance), where the kernel pays full
// weight for zero-distance arcs and decays the short-jump
// weights linearly over their windows (ArcScore). Higher is better —
// unlike control penalty, this is a maximization objective. order must
// be a permutation of f's blocks; arcs are summed in block/successor
// index order, so the result is bit-deterministic.
func ExtTSPScore(f *ir.Func, fp *interp.FuncProfile, order []int) float64 {
	sizes := BlockBytes(f)
	pos := make([]int, len(f.Blocks))
	off := 0
	for _, b := range order {
		pos[b] = off
		off += sizes[b]
	}
	var total float64
	for b, blk := range f.Blocks {
		srcEnd := pos[b] + sizes[b]
		for si := range blk.Term.Succs {
			w := fp.EdgeCounts[b][si]
			if w == 0 {
				continue
			}
			total += ArcScore(w, srcEnd, pos[blk.Term.Succs[si]])
		}
	}
	return total
}

// ModuleExtTSPScore sums ExtTSPScore over all functions of a layout.
func ModuleExtTSPScore(mod *ir.Module, l *Layout, prof *interp.Profile) float64 {
	var total float64
	for fi, f := range mod.Funcs {
		total += ExtTSPScore(f, prof.Funcs[fi], l.Funcs[fi].Order)
	}
	return total
}
