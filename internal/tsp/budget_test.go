package tsp

import (
	"context"
	"testing"
	"time"
)

// unlimited returns a budget that cannot trip within a test run, used to
// pin that the budget plumbing itself changes nothing.
func unlimited() Budget {
	return Budget{Deadline: time.Now().Add(24 * time.Hour), MaxKicks: 1 << 40}
}

// TestSolveBudgetPlumbingBitIdentical pins the anytime refactor's core
// contract: threading a live context and a generous budget through Solve
// must not change the tour, the cost, the run statistics, or the random
// stream relative to a plain solve.
func TestSolveBudgetPlumbingBitIdentical(t *testing.T) {
	for _, n := range []int{15, 40} {
		m := randMatrix(n, 1000, int64(n))
		opt := PaperSolveOptions(7)
		opt.ExactThreshold = 0 // force the local-search path even for n=15
		plain := Solve(m, opt)

		budgeted := opt
		budgeted.Context = context.Background()
		budgeted.Budget = unlimited()
		got := Solve(m, budgeted)

		if got.Truncated {
			t.Fatalf("n=%d: unlimited budget marked truncated", n)
		}
		if got.Cost != plain.Cost || got.Runs != plain.Runs ||
			got.RunsAtBest != plain.RunsAtBest || got.Kicks != plain.Kicks ||
			got.MovesTried != plain.MovesTried || got.MovesAccepted != plain.MovesAccepted ||
			got.IterationsToBest != plain.IterationsToBest {
			t.Fatalf("n=%d: budgeted result diverged: %+v vs %+v", n, got, plain)
		}
		for i := range plain.Tour {
			if got.Tour[i] != plain.Tour[i] {
				t.Fatalf("n=%d: tours differ at %d: %v vs %v", n, i, got.Tour, plain.Tour)
			}
		}
	}
}

func TestSolveCancelledContextReturnsValidTour(t *testing.T) {
	m := randMatrix(30, 1000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the solve starts
	opt := PaperSolveOptions(1)
	opt.ExactThreshold = 0
	opt.Context = ctx
	res := Solve(m, opt)
	if !res.Truncated {
		t.Fatal("cancelled solve not marked truncated")
	}
	if !res.Tour.Valid(30) {
		t.Fatalf("cancelled solve returned invalid tour %v", res.Tour)
	}
	if res.Cost != CycleCost(m, res.Tour) {
		t.Fatalf("reported cost %d != tour cost %d", res.Cost, CycleCost(m, res.Tour))
	}
}

func TestSolveExpiredDeadlineReturnsValidTour(t *testing.T) {
	m := randMatrix(25, 500, 11)
	opt := PaperSolveOptions(1)
	opt.ExactThreshold = 0
	opt.Budget = Budget{Deadline: time.Now().Add(-time.Second)}
	res := Solve(m, opt)
	if !res.Truncated {
		t.Fatal("expired deadline not marked truncated")
	}
	if !res.Tour.Valid(25) {
		t.Fatalf("invalid tour %v", res.Tour)
	}
}

func TestSolveMaxKicksCapsWork(t *testing.T) {
	m := randMatrix(30, 1000, 5)
	opt := PaperSolveOptions(1)
	opt.ExactThreshold = 0
	opt.Budget = Budget{MaxKicks: 7}
	res := Solve(m, opt)
	if res.Kicks > 7 {
		t.Fatalf("performed %d kicks, budget was 7", res.Kicks)
	}
	if !res.Truncated {
		t.Fatal("kick-capped solve not marked truncated")
	}
	if !res.Tour.Valid(30) || res.Cost != CycleCost(m, res.Tour) {
		t.Fatalf("invalid result %v cost=%d", res.Tour, res.Cost)
	}

	// The budgeted prefix follows the identical random stream, so its
	// result can never beat the full protocol's.
	full := Solve(m, PaperSolveOptions(1))
	if res.Cost < full.Cost {
		t.Fatalf("truncated cost %d beats full solve %d", res.Cost, full.Cost)
	}
}

func TestSolveExactPathIgnoresBudget(t *testing.T) {
	m := randMatrix(8, 100, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := PaperSolveOptions(1) // ExactThreshold 12 covers n=8
	opt.Context = ctx
	res := Solve(m, opt)
	if !res.Exact || res.Truncated {
		t.Fatalf("tiny instance should solve exactly regardless of budget: %+v", res)
	}
}

func TestHeldKarpBoundPlumbingBitIdentical(t *testing.T) {
	m := randMatrix(20, 500, 13)
	plain := HeldKarpBound(m, HeldKarpOptions{Iterations: 200}).Bound
	opt := HeldKarpOptions{Iterations: 200, Context: context.Background(), Budget: unlimited()}
	got := HeldKarpBound(m, opt)
	if got.Truncated {
		t.Fatal("unlimited budget marked truncated")
	}
	if got.Bound != plain {
		t.Fatalf("budgeted bound %v != plain %v", got.Bound, plain)
	}
}

// TestHeldKarpBoundMaxIterates: Iterations is the ascent's iterate cap.
// A short ascent runs at most its schedule, is not truncated (nothing cut
// it short), and its bound is valid and no tighter than a longer one's.
func TestHeldKarpBoundMaxIterates(t *testing.T) {
	m := randMatrix(10, 300, 4)
	_, opt := SolveExact(m)
	full := HeldKarpBound(m, HeldKarpOptions{UpperBound: opt, Iterations: 200})
	capped := HeldKarpBound(m, HeldKarpOptions{UpperBound: opt, Iterations: 3})
	if capped.Iterations > 3 {
		t.Fatalf("ran %d iterates, schedule was 3", capped.Iterations)
	}
	if capped.Truncated {
		t.Fatal("an ascent that ran its own schedule marked truncated")
	}
	if capped.Bound > float64(opt)+1e-6 {
		t.Fatalf("short-ascent bound %v exceeds optimum %d", capped.Bound, opt)
	}
	if capped.Bound > full.Bound+1e-6 {
		t.Fatalf("short-ascent bound %v beats full ascent %v", capped.Bound, full.Bound)
	}
}

func TestHeldKarpBoundCancelledRunsOneIterate(t *testing.T) {
	m := randMatrix(12, 300, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, opt := SolveExact(m)
	res := HeldKarpBound(m, HeldKarpOptions{UpperBound: opt, Iterations: 200, Context: ctx})
	if res.Iterations != 1 {
		t.Fatalf("cancelled ascent ran %d iterates, want exactly 1", res.Iterations)
	}
	if !res.Truncated {
		t.Fatal("cancelled ascent not marked truncated")
	}
	if res.Bound > float64(opt)+1e-6 {
		t.Fatalf("one-iterate bound %v exceeds optimum %d", res.Bound, opt)
	}
}
