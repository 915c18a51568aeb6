package align

import (
	"context"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/tsp"
)

// BuildSparseMatrix constructs the DTSP instance for one function, per
// Section 2.2 of the paper: a complete directed graph over the function's
// blocks where the cost of edge (B, X) is the penalty accrued at the end
// of B when X succeeds it in the layout (including the cost of any fixup
// branches the placement forces). It is the only builder; the solve, both
// bounds and any tour-cost check of one function share its result.
//
// The paper adds "a dummy block representing the end of the layout"; here
// the dummy is merged with the entry block into city 0 (the entry must be
// laid out first, so in any cycle through city 0 the edge into city 0 is
// the end-of-layout cost and the edge out of city 0 is the entry's
// successor cost). The merge keeps every matrix entry finite: no
// forbidden-edge constants are needed, which also tightens the Held-Karp
// bound. City k corresponds to block k; a tour rotated to start at city 0
// is exactly a block order.
//
// The instance is built in O(V+E) time and memory instead of Θ(V²). Each
// row takes at most outdegree(B)+1 distinct values — one per CFG
// successor plus a row-constant "displaced" cost that also covers the
// end-of-layout column 0 (layout.SuccessorCostRow) — so the whole matrix
// is a per-row default plus an exception list the size of the CFG edge
// set. At(b, x) equals layout.SuccessorCost(f, fp, pred, b, x, m), with
// x = -1 for column 0 and pred = layout.Predictions(f, fp).
//
// The build is recorded as an "align.build_matrix" span under sp, tagged
// with the function name and exception count, and each row's exception
// count goes to the "align.row_exceptions" histogram. A nil sp records
// nothing.
func BuildSparseMatrix(f *ir.Func, fp *interp.FuncProfile, m machine.Model, sp *obs.Span) *tsp.SparseMatrix {
	bm := sp.Child("align.build_matrix", obs.String("func", f.Name))
	pred := layout.Predictions(f, fp)
	n := len(f.Blocks)
	sb := tsp.NewSparseBuilder(n)
	var succs []int
	var costs []layout.Cost
	type exc struct {
		col int
		val tsp.Cost
	}
	excs := make([]exc, 0, 4)
	var cols []int
	var vals []tsp.Cost
	for b := 0; b < n; b++ {
		var def layout.Cost
		def, succs, costs = layout.SuccessorCostRow(f, fp, pred, b, m, succs[:0], costs[:0])
		excs = excs[:0]
		for k, x := range succs {
			// The diagonal is never read, and column 0 carries the
			// end-of-layout cost, which equals the row default.
			if x == b || x == 0 || costs[k] == def {
				continue
			}
			excs = append(excs, exc{x, costs[k]})
		}
		// Stable insertion sort by column; rows have at most
		// outdegree(b) entries, so this beats sort.SliceStable and
		// avoids its closure allocation.
		for i := 1; i < len(excs); i++ {
			for j := i; j > 0 && excs[j-1].col > excs[j].col; j-- {
				excs[j], excs[j-1] = excs[j-1], excs[j]
			}
		}
		cols, vals = cols[:0], vals[:0]
		for _, e := range excs {
			if len(cols) > 0 && cols[len(cols)-1] == e.col {
				continue // duplicate successor: first entry wins, as in SuccessorCost
			}
			cols = append(cols, e.col)
			vals = append(vals, e.val)
		}
		sb.AddRow(def, cols, vals) // AddRow copies, so the scratch is reusable
	}
	mat := sb.Finish()
	if bm != nil {
		bm.End(obs.Int("exceptions", int64(mat.Exceptions())))
		for b := 0; b < n; b++ {
			cols, _ := mat.Row(b)
			sp.Observe("align.row_exceptions", float64(len(cols)))
		}
	}
	return mat
}

// TSP is the paper's aligner: reduce each function to a DTSP and solve it
// with multi-start iterated 3-opt (exactly for small functions).
type TSP struct {
	// Opts configures the solver; the zero value selects the paper's
	// protocol (10 runs, 2N iterations) with seed 1. Function i solves
	// with Opts.Seed+i. Its Context, Budget, Pool and Obs come from the
	// run (see Func), so Opts.Parallelism composes with the per-function
	// fan-out: both layers draw workers from the same pool.
	Opts tsp.SolveOptions
}

// NewTSP returns a TSP aligner with the paper's solver protocol.
func NewTSP(seed int64) *TSP {
	return &TSP{Opts: tsp.PaperSolveOptions(seed)}
}

// Name implements Aligner.
func (*TSP) Name() string { return "tsp" }

// AlignFunc implements Aligner. A cancelled ctx (or an exhausted
// fn.Budget) truncates the solve at its next kick boundary and returns
// the best-so-far order.
func (t *TSP) AlignFunc(ctx context.Context, fn *Func) FuncResult {
	opts := t.Opts
	if opts.GreedyStarts == 0 && opts.NNStarts == 0 && opts.IdentityStarts == 0 {
		def := tsp.PaperSolveOptions(1)
		def.Parallelism = opts.Parallelism
		opts = def
	}
	opts.Context, opts.Budget, opts.Pool, opts.Obs = ctx, fn.Budget, fn.Pool, fn.Obs
	r := SolveFunc(fn.IR, fn.Matrix(), opts, int64(fn.Index))
	return FuncResult{Order: r.Order, Exact: r.Exact, Truncated: r.Truncated, Kicks: r.Kicks}
}

// SolveResult carries per-function solver diagnostics, used by the
// appendix experiment.
type SolveResult struct {
	Cities     int
	Order      []int
	Cost       tsp.Cost
	Exact      bool
	Runs       int
	RunsAtBest int
	// IterationsToBest is the kick iteration at which the winning run
	// found the final tour; MovesTried/MovesAccepted total the 3-opt
	// segment-exchange moves examined and applied across all runs, and
	// OrMovesTried/OrMovesAccepted the Or-opt relocations (see
	// tsp.Result).
	IterationsToBest              int
	MovesTried, MovesAccepted     int64
	OrMovesTried, OrMovesAccepted int64
	// Kicks totals the kick rounds performed; Truncated marks a solve
	// cut short by its context or budget (see tsp.Result).
	Kicks     int64
	Truncated bool
}

// SolveFunc runs the solver on f's DTSP instance mat (built by
// BuildSparseMatrix) with seed opts.Seed+seedOffset and returns the
// block order plus diagnostics. The solve is recorded as an
// "align.func" span under opts.Obs (nil records nothing).
func SolveFunc(f *ir.Func, mat *tsp.SparseMatrix, opts tsp.SolveOptions, seedOffset int64) SolveResult {
	n := mat.Len()
	out := SolveResult{Cities: n}
	sp := opts.Obs.Child("align.func", obs.String("func", f.Name), obs.Int("cities", int64(n)),
		obs.String("algorithm", "tsp"))
	if n == 1 {
		out.Order = []int{0}
		out.Exact = true
		out.Runs = 1
		out.RunsAtBest = 1
		sp.End(obs.Int("cost", 0), obs.Bool("exact", true))
		return out
	}
	opts.Seed += seedOffset
	opts.Obs = sp
	res := tsp.Solve(mat, opts)
	res.Tour.RotateTo(0)
	out.Order = res.Tour
	out.Cost = res.Cost
	out.Exact = res.Exact
	out.Runs = res.Runs
	out.RunsAtBest = res.RunsAtBest
	out.IterationsToBest = res.IterationsToBest
	out.MovesTried = res.MovesTried
	out.MovesAccepted = res.MovesAccepted
	out.OrMovesTried = res.OrMovesTried
	out.OrMovesAccepted = res.OrMovesAccepted
	out.Kicks = res.Kicks
	out.Truncated = res.Truncated
	sp.End(obs.Int("cost", res.Cost), obs.Bool("exact", res.Exact), obs.Bool("truncated", res.Truncated),
		obs.Int("runs", int64(res.Runs)), obs.Int("runs_at_best", int64(res.RunsAtBest)),
		obs.Int("iter_best", int64(res.IterationsToBest)),
		obs.Int("moves_tried", res.MovesTried), obs.Int("moves_accepted", res.MovesAccepted),
		obs.Int("or_moves_tried", res.OrMovesTried), obs.Int("or_moves_accepted", res.OrMovesAccepted))
	return out
}

// FuncBoundResult carries one function's Held-Karp bound with its
// anytime diagnostics.
type FuncBoundResult struct {
	// Bound is a valid lower bound on the function's control penalty.
	Bound layout.Cost
	// Exact is true when the function was small enough to bound by its
	// true optimum (exact DP) or trivially (single block).
	Exact bool
	// Truncated is true when the subgradient ascent was cut short by its
	// context or budget; the bound is still valid, just weaker.
	Truncated bool
	// Iterations is the number of subgradient iterates evaluated (0 for
	// exact bounds).
	Iterations int
	// Converged is true when the bound is provably exact for the relaxed
	// instance: the 1-tree became a tour, or the function was small
	// enough to bound by its true optimum.
	Converged bool
}

// FuncHeldKarpBound computes the Held-Karp bound on f's DTSP instance mat
// (built by BuildSparseMatrix), with its anytime diagnostics. Functions
// small enough for exact solving are bounded by their true optimum. When
// opts.Obs is set, the bound computation is recorded as an "align.hk"
// span (with the subgradient trajectory nested under it).
func FuncHeldKarpBound(f *ir.Func, mat *tsp.SparseMatrix, opts tsp.HeldKarpOptions) FuncBoundResult {
	n := mat.Len()
	sp := opts.Obs.Child("align.hk", obs.String("func", f.Name), obs.Int("cities", int64(n)))
	opts.Obs = sp
	if n == 1 {
		sp.End(obs.Int("bound", 0), obs.Bool("exact", true), obs.Bool("converged", true))
		return FuncBoundResult{Exact: true, Converged: true}
	}
	if n <= 12 {
		_, opt := tsp.SolveExact(mat)
		sp.End(obs.Int("bound", opt), obs.Bool("exact", true), obs.Bool("converged", true))
		return FuncBoundResult{Bound: opt, Exact: true, Converged: true}
	}
	hk := tsp.HeldKarpBound(mat, opts)
	b := hk.Bound
	if b < 0 {
		b = 0 // costs are non-negative; clamp numerical noise
	}
	// The bound is valid, and penalties are integral, so rounding up
	// keeps it valid while tightening it.
	c := layout.Cost(b)
	if float64(c) < b {
		c++
	}
	sp.End(obs.Int("bound", int64(c)), obs.Bool("truncated", hk.Truncated),
		obs.Int("iterations", int64(hk.Iterations)), obs.Bool("converged", hk.Converged))
	return FuncBoundResult{Bound: c, Truncated: hk.Truncated, Iterations: hk.Iterations,
		Converged: hk.Converged}
}
