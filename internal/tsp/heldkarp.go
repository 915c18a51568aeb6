package tsp

import (
	"context"
	"math"

	"branchalign/internal/obs"
)

// HeldKarpOptions configures the Lagrangian subgradient ascent used to
// compute the Held-Karp lower bound.
type HeldKarpOptions struct {
	// Iterations of subgradient ascent; it must be positive.
	Iterations int
	// Obs, when non-nil, is the parent span the subgradient ascent
	// records its telemetry under: a "tsp.heldkarp" child span carrying
	// the bound trajectory ("hk_bound", one point per improving iterate)
	// and step-size series ("hk_step"). Nil records nothing.
	Obs *obs.Span
	// Context, when non-nil, cancels the ascent at the next subgradient
	// iterate boundary. The best bound found so far is returned with
	// BoundResult.Truncated set — every iterate's bound is a valid lower
	// bound, so truncation never invalidates the result. At least one
	// iterate always runs, so a cancelled call still returns a real
	// (if weak) bound.
	Context context.Context
}

// BoundResult reports the outcome of a Held-Karp bound computation.
type BoundResult struct {
	// Bound is the best lower bound found. It is valid for any number of
	// completed iterates.
	Bound float64
	// Iterations is the number of subgradient iterates evaluated.
	Iterations int
	// Truncated is true when the ascent was cut short by its context
	// before the iteration schedule completed.
	Truncated bool
	// Converged is true when the 1-tree became a tour, making the bound
	// provably exact for the relaxed instance.
	Converged bool
}

// hkInitialAlpha is the initial step-size multiplier.
const hkInitialAlpha = 2.0

// HeldKarpBound computes the Held-Karp lower bound on the optimal tour of
// a directed instance by relaxing its 2-city symmetric transformation,
// exactly as the paper does: 1-tree Lagrangian relaxation with
// subgradient ascent (Held & Karp 1970, 1971). Each iterate evaluates
// L(pi) = w(min 1-tree under reduced costs) - 2*sum(pi), and the maximum
// over visited pi is a valid lower bound for any number of completed
// iterates.
//
// The 2n×2n symmetric matrix is never materialized. The instance is first
// converted to canonical sparse form (Sparsify), which makes the result a
// pure function of the cost values: any two encodings of the same
// instance yield identical bounds. Each iterate builds the
// implicit 1-tree in O(E + n log n) instead of Θ(n²) (see sparseOneTree),
// which is what makes the bound affordable on multi-thousand-block
// functions. Instances under three cities have a single tour, whose cost
// is returned as a converged bound without any ascent. The steps are
// scaled from the cost of a nearest-neighbor tour. It panics unless
// opt.Iterations is positive.
func HeldKarpBound(c *SparseMatrix, opt HeldKarpOptions) BoundResult {
	if opt.Iterations <= 0 {
		panic("tsp: HeldKarpBound: Iterations must be positive")
	}
	n := c.Len()
	if n < 3 {
		var tour Cost
		if n == 2 {
			tour = c.At(0, 1) + c.At(1, 0)
		}
		return BoundResult{Bound: float64(tour), Converged: true}
	}
	sp := Sparsify(c)
	ot := newSparseOneTree(sp)
	defer ot.release()
	// The symmetric instance carries -L on its n locked edges, so its
	// optimum is the directed optimum shifted down by n·L.
	shift := float64(n) * float64(ot.L)
	dirUB := CycleCost(sp, NearestNeighbor(sp, 0, nil))
	hsp := opt.Obs.Child("tsp.heldkarp",
		obs.Int("cities", int64(n)), obs.Int("nodes", int64(ot.N)), obs.Float("shift", shift))
	return ascend(hsp, ot.pi, ot.deg, ot.run, opt, dirUB, shift)
}

// ascend is the subgradient ascent behind HeldKarpBound. oneTree builds
// the minimum 1-tree under the current pi, fills deg with its node
// degrees and returns its reduced-cost weight; the ascent owns pi
// between calls. The relaxed instance's optimum is the directed optimum
// minus shift, so dirUB - shift scales the steps and shift converts the
// best raw bound (and every recorded trajectory point) back into
// directed terms. sp is the "tsp.heldkarp" span, which ascend ends.
func ascend(sp *obs.Span, pi []float64, deg []int, oneTree func() float64, opt HeldKarpOptions, dirUB Cost, shift float64) BoundResult {
	boundSeries := sp.Series("hk_bound")
	stepSeries := sp.Series("hk_step")
	// The step multiplier halves every period iterates: eight times over
	// the schedule, and never more often than every five iterates.
	iters := opt.Iterations
	period := max(iters/8, 5)
	ub := float64(dirUB) - shift
	alpha := hkInitialAlpha
	best := math.Inf(-1)
	res := BoundResult{}
	for it := 0; it < iters; it++ {
		// Iterate-boundary cancellation check. The first iterate always
		// runs (it is cheap and guarantees a real bound); later iterates
		// stop as soon as the context is done — best is already valid.
		if res.Iterations > 0 && cancelled(opt.Context) {
			res.Truncated = true
			break
		}
		res.Iterations = it + 1
		w := oneTree()
		var piSum float64
		for _, p := range pi {
			piSum += p
		}
		bound := w - 2*piSum
		if bound > best {
			best = bound
			boundSeries.Add(int64(it), bound+shift)
		}
		if isTour(deg) {
			// The 1-tree is a tour: the bound is exact.
			res.Converged = true
			sp.SetAttrs(obs.Bool("converged", true))
			break
		}
		step := subgradientStep(pi, deg, alpha, ub, bound)
		if step == 0 {
			break
		}
		if it%period == 0 {
			stepSeries.Add(int64(it), step)
		}
		if (it+1)%period == 0 {
			alpha /= 2
		}
	}
	res.Bound = best + shift
	sp.Count("hk.iterations", int64(res.Iterations))
	sp.End(obs.Float("bound", res.Bound), obs.Int("iterations", int64(res.Iterations)),
		obs.Bool("truncated", res.Truncated))
	return res
}

// isTour reports whether every node of the 1-tree has degree 2, i.e. the
// subgradient is zero.
func isTour(deg []int) bool {
	for _, d := range deg {
		if d != 2 {
			return false
		}
	}
	return true
}

// subgradientStep moves pi along the subgradient deg-2 by the step
// alpha·(ub-bound)/|deg-2|² and returns the step. It returns 0 and
// leaves pi unchanged when the subgradient is zero or the step is not
// positive (the bound has reached the upper bound).
func subgradientStep(pi []float64, deg []int, alpha, ub, bound float64) float64 {
	var norm float64
	for _, d := range deg {
		x := float64(d - 2)
		norm += x * x
	}
	if norm == 0 {
		return 0
	}
	step := alpha * (ub - bound) / norm
	if step <= 0 {
		return 0
	}
	for i := range pi {
		pi[i] += step * float64(deg[i]-2)
	}
	return step
}
