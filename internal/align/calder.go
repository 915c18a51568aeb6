package align

import (
	"context"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

// CalderGrunwald is the improved greedy aligner of Calder and Grunwald
// ("Reducing Branch Costs via Branch Alignment", ASPLOS 1994), as
// characterized in the paper's related work: it (1) exposes the machine
// model when prioritizing edges — each candidate edge is weighted by the
// penalty cycles saved by making it a fall-through rather than by raw
// frequency — and (2) improves the final chain concatenation by
// exhaustively searching chain orders when the chain count is small
// (their heuristic exhaustively reorders the blocks touched by the
// hottest edges; bounded exhaustive chain ordering is the analogous
// search at chain granularity).
type CalderGrunwald struct{}

// cgMaxChains bounds the factorial search over non-entry chain orders
// (6! = 720 permutations); above it the greedy attraction order is
// kept.
const cgMaxChains = 6

// Name implements Aligner.
func (CalderGrunwald) Name() string { return "calder-grunwald" }

// AlignFunc implements Aligner.
func (CalderGrunwald) AlignFunc(_ context.Context, fn *Func) FuncResult {
	f, fp, m := fn.IR, fn.Prof, fn.Model
	order := chainAndOrder(f, fp, savingsWeights(f, fp, m))
	return FuncResult{Order: improveChainOrder(f, fp, m, order)}
}

// savingsWeights weights each candidate edge (b, s) by the penalty saved
// when s becomes b's layout successor instead of being displaced:
// d(b, elsewhere) - d(b, s) under the machine model.
func savingsWeights(f *ir.Func, fp *interp.FuncProfile, m machine.Model) []cfgEdge {
	pred := layout.Predictions(f, fp)
	merged := map[[2]int]int64{}
	for b, blk := range f.Blocks {
		for _, s := range blk.Term.Succs {
			if s == b || s == 0 {
				continue
			}
			key := [2]int{b, s}
			if _, done := merged[key]; done {
				continue
			}
			displaced := layout.SuccessorCost(f, fp, pred, b, -1, m)
			adjacent := layout.SuccessorCost(f, fp, pred, b, s, m)
			merged[key] = displaced - adjacent
		}
	}
	edges := make([]cfgEdge, 0, len(merged))
	//balignlint:ignore order laundered: chainAndOrder sorts edges with a total tie-break
	for k, w := range merged {
		if w <= 0 {
			continue
		}
		edges = append(edges, cfgEdge{from: k[0], to: k[1], weight: w})
	}
	return edges
}

// improveChainOrder re-derives the chains from a concatenated order (a
// chain is a maximal run of blocks kept adjacent because each link is a
// CFG edge chosen by the greedy pass is not recoverable here, so chains
// are taken as maximal runs where consecutive blocks are CFG-successor
// pairs) and exhaustively permutes the non-entry chains when few enough,
// keeping the order with the lowest training penalty.
func improveChainOrder(f *ir.Func, fp *interp.FuncProfile, m machine.Model, order []int) []int {
	isCFGSucc := func(a, b int) bool {
		for _, s := range f.Blocks[a].Term.Succs {
			if s == b {
				return true
			}
		}
		return false
	}
	var chains [][]int
	cur := []int{order[0]}
	for i := 1; i < len(order); i++ {
		if isCFGSucc(order[i-1], order[i]) {
			cur = append(cur, order[i])
			continue
		}
		chains = append(chains, cur)
		cur = []int{order[i]}
	}
	chains = append(chains, cur)
	if len(chains)-1 > cgMaxChains || len(chains) <= 2 {
		return order
	}
	rest := chains[1:]
	best := append([]int(nil), order...)
	bestCost := orderPenalty(f, fp, m, order)
	perm := make([]int, len(rest))
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	cand := make([]int, 0, len(order))
	rec = func(k int) {
		if k == len(perm) {
			cand = cand[:0]
			cand = append(cand, chains[0]...)
			for _, pi := range perm {
				cand = append(cand, rest[pi]...)
			}
			if c := orderPenalty(f, fp, m, cand); c < bestCost {
				bestCost = c
				best = append(best[:0], cand...)
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func orderPenalty(f *ir.Func, fp *interp.FuncProfile, m machine.Model, order []int) layout.Cost {
	fl := layout.Finalize(f, fp, order, m)
	return layout.Penalty(f, fl, fp, m)
}
