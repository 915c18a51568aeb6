package tsp

import (
	"context"
	"sync/atomic"
	"time"
)

// Budget bounds the work a single solver call may perform. The solver is
// anytime: iterated 3-opt always holds a valid best-so-far tour and the
// Held-Karp ascent always holds a valid lower bound, so exhausting a
// budget never produces an invalid result — the call returns what it has,
// flagged Truncated. The zero Budget is unlimited.
//
// Budgets compose with context cancellation (SolveOptions.Context /
// HeldKarpOptions.Context): whichever signal fires first stops the solve
// at the next kick or subgradient-iterate boundary.
type Budget struct {
	// Deadline is an absolute wall-clock cutoff. Zero means none.
	Deadline time.Time
	// MaxKicks caps the total double-bridge kick rounds across all
	// local-search runs of one Solve call. 0 means unlimited.
	MaxKicks int64
	// MaxHKIterations caps the subgradient iterates of one Held-Karp
	// bound computation. 0 means unlimited (the iteration schedule of
	// HeldKarpOptions still applies).
	MaxHKIterations int
}

// cancelCheck is the shared boundary test for cancellation signals. It is
// deliberately side-effect-free with respect to the solver state: checking
// never touches the random stream, so an uncancelled solve is bit-identical
// to one run without any context or deadline.
type cancelCheck struct {
	ctx      context.Context
	deadline time.Time
}

func newCancelCheck(ctx context.Context, b Budget) cancelCheck {
	return cancelCheck{ctx: ctx, deadline: b.Deadline}
}

// cancelled reports whether the context is done or the deadline has
// passed. The zero cancelCheck is never cancelled.
func (c *cancelCheck) cancelled() bool {
	if c.ctx != nil {
		select {
		case <-c.ctx.Done():
			return true
		default:
		}
	}
	//balignlint:ignore wall-clock deadlines are opt-in nondeterminism; reproducible runs budget by MaxKicks/MaxHKIterations
	return !c.deadline.IsZero() && time.Now().After(c.deadline)
}

// solveBudget is the budget state shared by the (possibly concurrent)
// local-search runs of one Solve call: the total kick count and the
// latched cancellation observation are plain atomics, safe from any run
// goroutine.
//
// Deliberately NOT shared: the MaxKicks allowance. A shared "first come,
// first served" kick counter would hand out the budget in goroutine
// scheduling order, making results depend on the schedule. Instead Solve
// precomputes each run's kick quota from (MaxKicks, iterations per run,
// run index) — exactly the kicks that run would have been allowed
// sequentially — so budget exhaustion is schedule-independent; see
// runBudget and the run-plan partition in Solve.
type solveBudget struct {
	check     cancelCheck
	kicks     atomic.Int64
	cancelled atomic.Bool
}

// cancelledNow reports (and latches) whether the solve's context or
// deadline has fired. The latch makes later checks cheap and gives Solve
// a single flag for the Truncated result bit. Time-based cancellation is
// inherently schedule-dependent under parallelism; only the MaxKicks
// path carries the determinism guarantee.
func (b *solveBudget) cancelledNow() bool {
	if b.cancelled.Load() {
		return true
	}
	if b.check.cancelled() {
		b.cancelled.Store(true)
		return true
	}
	return false
}

// runBudget is one run's slice of the solve budget: a deterministic kick
// quota (quota < 0 means unlimited) plus the shared cancellation check.
// It is owned by a single run goroutine; only sb is shared.
type runBudget struct {
	sb      *solveBudget
	quota   int64
	used    int64
	stopped bool
}

// spend records one consumed kick. Nil-safe, like allow.
func (rb *runBudget) spend() {
	if rb != nil {
		rb.used++
		rb.sb.kicks.Add(1)
	}
}

// allow reports whether the next kick may start. The call order matters
// for exactness of the Truncated flag: allow is only consulted when more
// work is actually planned, so a run that finishes precisely at its
// quota does not observe exhaustion here (Solve derives the Truncated
// bit from the plan partition instead).
func (rb *runBudget) allow() bool {
	if rb == nil {
		return true
	}
	if rb.stopped {
		return false
	}
	if rb.quota >= 0 && rb.used >= rb.quota {
		rb.stopped = true
		return false
	}
	if rb.sb.cancelledNow() {
		rb.stopped = true
		return false
	}
	return true
}
