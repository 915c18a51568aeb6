package align

import (
	"context"

	"branchalign/internal/tsp"
)

// APPatch aligns by solving each function's DTSP with the
// assignment-patching heuristic (Karp-style) instead of iterated 3-Opt.
// It exists as the ablation comparator motivated by the paper's appendix:
// patching algorithms are "designed to exploit small gaps between the AP
// bound and the optimal tour length", a property most branch-alignment
// instances lack, so APPatch should trail the TSP aligner on exactly
// those functions where the AP bound is loose.
type APPatch struct{}

// Name implements Aligner.
func (APPatch) Name() string { return "ap-patch" }

// AlignFunc implements Aligner. A ctx cancelled before the patching
// finishes leaves the function in compiler order, flagged Truncated.
func (APPatch) AlignFunc(ctx context.Context, fn *Func) FuncResult {
	if len(fn.IR.Blocks) == 1 {
		return FuncResult{Order: []int{0}}
	}
	tour, _, err := tsp.SolvePatching(ctx, fn.Matrix())
	if err != nil {
		return FuncResult{Order: identityOrder(len(fn.IR.Blocks)), Truncated: true}
	}
	tour.RotateTo(0)
	return FuncResult{Order: tour}
}
