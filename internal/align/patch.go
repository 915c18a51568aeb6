package align

import (
	"context"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
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

// Align implements Aligner.
func (APPatch) Align(_ context.Context, mod *ir.Module, prof *interp.Profile, m machine.Model) *layout.Layout {
	orders := make([][]int, len(mod.Funcs))
	for fi, f := range mod.Funcs {
		if len(f.Blocks) == 1 {
			orders[fi] = []int{0}
			continue
		}
		tour, _ := tsp.SolvePatching(BuildSparseMatrix(f, prof.Funcs[fi], m, nil))
		tour.RotateTo(0)
		orders[fi] = tour
	}
	return finalizeOrders(mod, prof, m, orders)
}
