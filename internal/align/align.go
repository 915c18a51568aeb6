// Package align implements intraprocedural branch-alignment algorithms:
// the original (compiler) order, the Pettis-Hansen-style greedy aligner,
// the Calder-Grunwald cost-driven greedy variant, and the paper's
// TSP-based near-optimal aligner, together with the Held-Karp and
// assignment-problem lower bounds on achievable control penalty.
//
// An aligner lays out one function at a time; Run is the one loop over a
// module's functions. It fans the functions out on a worker pool, builds
// each function's DTSP matrix at most once (shared by the aligner and
// the optional Held-Karp bound), and finalizes the module layout.
package align

import (
	"context"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/tsp"
	"branchalign/internal/work"
)

// Aligner lays out one function at a time from a training profile under
// a machine model. Run drives it over a module.
type Aligner interface {
	// Name identifies the aligner in reports.
	Name() string
	// AlignFunc returns fn's block order, entry block first, with the
	// solver diagnostics it has (Exact, Truncated, Kicks); Run fills in
	// Cost and Bound.
	//
	// ctx carries request-scoped cancellation: an anytime aligner (tsp,
	// exttsp, ap-patch) stops at its next boundary and returns a valid
	// order, flagged Truncated — possibly a worse one than an
	// uncancelled run would produce. The greedy aligners are effectively
	// instantaneous and ignore ctx.
	AlignFunc(ctx context.Context, fn *Func) FuncResult
}

// Func is one function's alignment problem as Run hands it to an
// aligner. A Func is used by one goroutine at a time.
type Func struct {
	// Index is the function's position in the module; tsp seeds the
	// function's solve with Seed+Index.
	Index int
	IR    *ir.Func
	Prof  *interp.FuncProfile
	Model machine.Model
	// Pool, Budget and Obs are the run's (see RunOptions); Pool is
	// never nil.
	Pool   *work.Pool
	Budget tsp.Budget
	Obs    *obs.Span

	mat *tsp.SparseMatrix
}

// Matrix returns the function's DTSP instance (BuildSparseMatrix),
// building it on the first call and returning the same matrix after.
func (fn *Func) Matrix() *tsp.SparseMatrix {
	if fn.mat == nil {
		fn.mat = BuildSparseMatrix(fn.IR, fn.Prof, fn.Model, fn.Obs)
	}
	return fn.mat
}

// FuncResult is one function's outcome.
type FuncResult struct {
	// Order is the block order, entry block first.
	Order []int
	// Cost is the control penalty of Order's finalized layout on the
	// training profile. Run sets it; for tsp it equals the tour cost.
	Cost layout.Cost
	// Exact reports that Order is optimal: tsp solved the function
	// exactly or it has one block.
	Exact bool
	// Truncated reports that the aligner was cut short by its context
	// or budget; Order is still valid.
	Truncated bool
	// Kicks totals the tsp solve's kick rounds.
	Kicks int64
	// Bound is the function's Held-Karp bound, set when
	// RunOptions.Bound is.
	Bound FuncBoundResult
}

// RunOptions configures Run.
type RunOptions struct {
	// Pool runs the per-function tasks, and tsp's nested multi-start
	// runs; nil means work.Shared(). Functions are independent and
	// results are written by index, so every pool gives the same result.
	Pool *work.Pool
	// Budget bounds each function's tsp solve and its bound.
	Budget tsp.Budget
	// Bound, when non-nil, also bounds each function with Held-Karp on
	// the same matrix its aligner used. Run sets the options' Context,
	// Budget and Obs.
	Bound *tsp.HeldKarpOptions
	// Obs, when non-nil, is the parent span of every function's
	// "align.build_matrix", "align.func" and "align.hk" spans.
	Obs *obs.Span
}

// Result is Run's outcome.
type Result struct {
	// Layout is the finalized module layout; it satisfies
	// layout.Validate.
	Layout *layout.Layout
	Funcs  []FuncResult
	// Penalty and Bound sum the functions' Cost and Bound.Bound.
	Penalty layout.Cost
	Bound   layout.Cost
	// Truncated reports that some function's aligner or bound was cut
	// short.
	Truncated bool
}

// Run lays out every function of mod with a, using the edge frequencies
// in prof, and bounds each one when o.Bound is set. A nil ctx is treated
// as context.Background(). Cancellation never fails a run: every
// function gets a valid order (see Aligner).
func Run(ctx context.Context, a Aligner, mod *ir.Module, prof *interp.Profile, m machine.Model, o RunOptions) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	pool := o.Pool
	if pool == nil {
		pool = work.Shared()
	}
	n := len(mod.Funcs)
	res := &Result{Layout: &layout.Layout{Funcs: make([]*layout.FuncLayout, n)}, Funcs: make([]FuncResult, n)}
	pool.Each(n, func(fi int) {
		f, fp := mod.Funcs[fi], prof.Funcs[fi]
		fn := &Func{Index: fi, IR: f, Prof: fp, Model: m, Pool: pool, Budget: o.Budget, Obs: o.Obs}
		r := a.AlignFunc(ctx, fn)
		fl := layout.Finalize(f, fp, r.Order, m)
		r.Cost = layout.Penalty(f, fl, fp, m)
		if o.Bound != nil {
			ho := *o.Bound
			ho.Context, ho.Budget, ho.Obs = ctx, o.Budget, o.Obs
			r.Bound = FuncHeldKarpBound(f, fn.Matrix(), ho)
		}
		res.Layout.Funcs[fi] = fl
		res.Funcs[fi] = r
	})
	for _, r := range res.Funcs {
		res.Penalty += r.Cost
		res.Bound += r.Bound.Bound
		res.Truncated = res.Truncated || r.Truncated || r.Bound.Truncated
	}
	return res
}

// Original is the identity aligner: blocks stay in compiler order. It is
// the baseline all results are normalized against.
type Original struct{}

// Name implements Aligner.
func (Original) Name() string { return "original" }

// AlignFunc implements Aligner.
func (Original) AlignFunc(_ context.Context, fn *Func) FuncResult {
	return FuncResult{Order: identityOrder(len(fn.IR.Blocks))}
}

// identityOrder is the compiler order 0, 1, ..., n-1.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
