package check

import (
	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
	"branchalign/internal/work"
)

// BoundsOptions tunes the bound-consistency check.
type BoundsOptions struct {
	// HKIterations bounds the Held-Karp subgradient iterations (<= 0
	// selects a cheap default of 200 — every iterate is a valid lower
	// bound, so fewer iterations only loosen, never break, the chain).
	HKIterations int
	// Epsilon is the slack allowed in the chain comparisons. All
	// quantities are integral penalty cycles, so 0 (the default) is the
	// mathematically correct tolerance; a positive value is useful only
	// for experiments with rescaled cost models.
	Epsilon tsp.Cost
	// MinBlocks skips functions with fewer blocks (<= 0 selects 3, the
	// appendix's convention: one- and two-block layouts are forced, so
	// their chains are vacuous).
	MinBlocks int
	// HKStallWindow, when positive, lets each Held-Karp ascent stop
	// early once its best bound has plateaued for this many iterates
	// (tsp.HeldKarpOptions.StallWindow). Early termination only loosens
	// the bound, so the chain invariants this check audits are
	// unaffected — it is purely a wall-clock knob for the vet path.
	HKStallWindow int
}

func (o BoundsOptions) normalized() BoundsOptions {
	if o.HKIterations <= 0 {
		o.HKIterations = 200
	}
	if o.MinBlocks <= 0 {
		o.MinBlocks = 3
	}
	return o
}

// BoundChain checks the appendix's invariant chain on one instance: the
// assignment-problem bound and the Held-Karp bound are both lower bounds
// on every tour, so ap ≤ tour and hk ≤ tour are hard invariants (the
// optimal tour sits between the bounds and any heuristic tour). ap ≤ hk
// is reported as a warning when violated: it holds whenever the HK
// subgradient has converged past the AP relaxation (and always when the
// instance was solved exactly), but an undertrained HK value is loose,
// not wrong.
func BoundChain(name string, ap, hk, tour, eps tsp.Cost) *Report {
	r := &Report{}
	if ap > tour+eps {
		r.add(Error, ClassBounds, name, -1, "AP bound %d exceeds tour cost %d", ap, tour)
	}
	if hk > tour+eps {
		r.add(Error, ClassBounds, name, -1, "Held-Karp bound %d exceeds tour cost %d", hk, tour)
	}
	if ap > hk+eps {
		r.add(Warning, ClassBounds, name, -1, "AP bound %d exceeds Held-Karp bound %d (HK not converged)", ap, hk)
	}
	return r
}

// Bounds verifies the AP ≤ HK ≤ tour chain for every function of mod
// large enough to have a non-trivial layout, using the vetted layout's
// block order as the tour. The function's DTSP matrix is built once and
// both bounds are recomputed from it; the tour cost is the cycle cost of
// the layout order on that same matrix, which by construction equals the
// layout's walk cost plus the end-of-layout closing edge.
//
// Functions are audited in parallel on the shared worker pool — each
// function's chain is independent — and the per-function findings are
// merged in plan (function-index) order, so the report is identical to
// the sequential loop's regardless of scheduling.
func Bounds(mod *ir.Module, prof *interp.Profile, l *layout.Layout, m machine.Model, opts BoundsOptions) *Report {
	opts = opts.normalized()
	var eligible []int
	for fi, f := range mod.Funcs {
		if len(f.Blocks) >= opts.MinBlocks {
			eligible = append(eligible, fi)
		}
	}
	per := make([]*Report, len(eligible))
	work.Shared().Each(len(eligible), func(k int) {
		fi := eligible[k]
		f := mod.Funcs[fi]
		fp := prof.Funcs[fi]
		mat := align.BuildSparseMatrix(f, fp, m, nil)
		ap := tsp.AssignmentBound(mat)
		hk := align.FuncHeldKarpBound(f, mat, tsp.HeldKarpOptions{
			Iterations:  opts.HKIterations,
			StallWindow: opts.HKStallWindow,
		}).Bound
		tour := tsp.CycleCost(mat, tsp.Tour(l.Funcs[fi].Order))
		per[k] = BoundChain(f.Name, ap, hk, tour, opts.Epsilon)
	})
	r := &Report{}
	for _, p := range per {
		r.Merge(p)
	}
	return r
}
