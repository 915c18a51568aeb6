package tsp

import (
	"context"
	"sync/atomic"
)

// cancelled reports whether ctx is done; a nil ctx never is. It is the
// solver's one cancellation test, at kick, run and subgradient-iterate
// boundaries. Checking never touches the random stream, so an
// uncancelled solve is bit-identical to one run without a context.
func cancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// solveBudget is the budget state shared by the (possibly concurrent)
// local-search runs of one Solve call: the total kick count and the
// latched cancellation observation are plain atomics, safe from any run
// goroutine.
//
// Deliberately NOT shared: the SolveOptions.MaxKicks allowance. A
// shared "first come, first served" kick counter would hand out the
// budget in goroutine scheduling order, making results depend on the
// schedule. Instead Solve precomputes each run's kick quota from
// (MaxKicks, iterations per run, run index) — exactly the kicks that run
// would have been allowed sequentially — so budget exhaustion is
// schedule-independent; see runBudget and the run-plan partition in
// Solve.
type solveBudget struct {
	ctx       context.Context
	kicks     atomic.Int64
	cancelled atomic.Bool
}

// cancelledNow reports (and latches) whether the solve's context has
// fired. The latch makes later checks cheap and gives Solve a single
// flag for the Truncated result bit. Cancellation is inherently
// schedule-dependent under parallelism; only the MaxKicks path carries
// the determinism guarantee.
func (b *solveBudget) cancelledNow() bool {
	if b.cancelled.Load() {
		return true
	}
	if cancelled(b.ctx) {
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

// spend records one consumed kick.
func (rb *runBudget) spend() {
	rb.used++
	rb.sb.kicks.Add(1)
}

// allow reports whether the next kick may start. The call order matters
// for exactness of the Truncated flag: allow is only consulted when more
// work is actually planned, so a run that finishes precisely at its
// quota does not observe exhaustion here (Solve derives the Truncated
// bit from the plan partition instead).
func (rb *runBudget) allow() bool {
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
