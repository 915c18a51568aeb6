package tsp

import (
	"math"
	"testing"
)

func TestHeldKarpSymNeverExceedsOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := randSymMatrix(9, 200, seed)
		_, opt := SolveExact(m)
		bound := heldKarpSym(m, HeldKarpOptions{UpperBound: opt}).Bound
		if bound > float64(opt)+1e-6 {
			t.Fatalf("seed %d: HK bound %.3f exceeds optimum %d", seed, bound, opt)
		}
	}
}

func TestHeldKarpSymTightOnRing(t *testing.T) {
	// A cheap symmetric ring in an expensive clique: the optimal tour is
	// the ring and the 1-tree relaxation is exact there.
	n := 10
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 100)
			}
		}
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		m.Set(i, j, 1)
		m.Set(j, i, 1)
	}
	bound := heldKarpSym(m, HeldKarpOptions{}).Bound
	if math.Abs(bound-float64(n)) > 1e-6 {
		t.Fatalf("HK bound on ring = %.6f, want %d", bound, n)
	}
}

func TestHeldKarpSymReasonablyTightOnRandomMetric(t *testing.T) {
	// On random symmetric instances the HK bound should be within a modest
	// factor of the optimum (empirically within a few percent; we assert a
	// loose 20% to keep the test robust).
	for seed := int64(0); seed < 4; seed++ {
		m := randSymMatrix(10, 500, seed+50)
		_, opt := SolveExact(m)
		bound := heldKarpSym(m, HeldKarpOptions{UpperBound: opt}).Bound
		if bound < 0.8*float64(opt) {
			t.Errorf("seed %d: HK bound %.1f is below 80%% of optimum %d", seed, bound, opt)
		}
	}
}

func TestHeldKarpDirectedBoundsDTSPOptimum(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := randMatrix(8, 300, seed+70)
		_, opt := SolveExact(m)
		bound := HeldKarpBound(m, HeldKarpOptions{UpperBound: opt}).Bound
		if bound > float64(opt)+1e-6 {
			t.Fatalf("seed %d: directed HK bound %.3f exceeds optimum %d", seed, bound, opt)
		}
	}
}

// TestHeldKarpTinyInstances: under three cities there is exactly one
// tour, so the bound is its cost, converged, with no ascent at all — and
// a one-city instance costs nothing.
func TestHeldKarpTinyInstances(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Costs
		want float64
	}{
		{"one/dense", NewMatrix(1), 0},
		{"one/sparse", Sparsify(NewMatrix(1)), 0},
		{"two/symmetric", fromRows([][]Cost{{0, 2}, {2, 0}}), 4},
		{"two/asymmetric", fromRows([][]Cost{{0, 3}, {9, 0}}), 12},
		{"two/sparse", Sparsify(fromRows([][]Cost{{0, 3}, {9, 0}})), 12},
	} {
		warm := &HKWarmState{}
		got := HeldKarpBound(tc.c, HeldKarpOptions{Warm: warm})
		want := BoundResult{Bound: tc.want, Converged: true}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, want)
		}
		if warm.Pi != nil {
			t.Errorf("%s: no ascent ran, yet the warm state was written", tc.name)
		}
	}
}

// TestHeldKarpWarmStartResumesBestBound pins the warm-start contract:
// the stored state is the best iterate's pi vector, so a warm-started
// call — even one allowed a single iterate — reproduces at least the
// bound the state came from, and a longer warm-started ascent never
// reports less.
func TestHeldKarpWarmStartResumesBestBound(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		sp := randSparse(40, 400, 0.2, seed+10)
		warm := &HKWarmState{}
		cold := HeldKarpBound(sp, HeldKarpOptions{Iterations: 60, Warm: warm})
		if len(warm.Pi) != 2*40 {
			t.Fatalf("seed %d: warm state has %d potentials, want %d", seed, len(warm.Pi), 2*40)
		}
		resume := HeldKarpBound(sp, HeldKarpOptions{Iterations: 1, Warm: warm})
		if resume.Bound < cold.Bound {
			t.Fatalf("seed %d: one warm iterate bound %.6f below cold best %.6f", seed, resume.Bound, cold.Bound)
		}
		full := HeldKarpBound(sp, HeldKarpOptions{Iterations: 60, Warm: warm})
		if full.Bound < cold.Bound {
			t.Fatalf("seed %d: warm ascent bound %.6f below cold best %.6f", seed, full.Bound, cold.Bound)
		}
		// Warm-started bounds stay valid lower bounds.
		if tour := CycleCost(sp, NearestNeighbor(sp, 0, nil)); full.Bound > float64(tour)+1e-6 {
			t.Fatalf("seed %d: warm bound %.6f exceeds a tour cost %d", seed, full.Bound, tour)
		}
	}
}

// TestHeldKarpWarmStateMismatchIgnored: a state sized for a different
// instance is ignored (cold start, bit-identical to no state) and then
// overwritten with this instance's dual vector.
func TestHeldKarpWarmStateMismatchIgnored(t *testing.T) {
	sp := randSparse(30, 300, 0.2, 3)
	cold := HeldKarpBound(sp, HeldKarpOptions{Iterations: 40})
	warm := &HKWarmState{Pi: make([]float64, 7)}
	got := HeldKarpBound(sp, HeldKarpOptions{Iterations: 40, Warm: warm})
	if got.Bound != cold.Bound || got.Iterations != cold.Iterations {
		t.Fatalf("mismatched warm state perturbed the ascent: %+v vs %+v", got, cold)
	}
	if len(warm.Pi) != 2*30 {
		t.Fatalf("state not overwritten for this instance: %d potentials, want %d", len(warm.Pi), 2*30)
	}
}

// TestHeldKarpStallStopsEarlyWithValidBound: the epsilon-over-window
// rule only truncates the maximization — the stalled bound is a prefix
// of the full ascent's trajectory, so it is never tighter and always
// valid, and a triggered stall runs strictly fewer iterates.
func TestHeldKarpStallStopsEarlyWithValidBound(t *testing.T) {
	sawStall := false
	for seed := int64(0); seed < 6; seed++ {
		sp := randSparse(60, 500, 0.15, seed+90)
		full := HeldKarpBound(sp, HeldKarpOptions{Iterations: 400})
		stalled := HeldKarpBound(sp, HeldKarpOptions{Iterations: 400, StallWindow: 10})
		if stalled.Truncated {
			t.Fatalf("seed %d: stall mislabeled as budget truncation", seed)
		}
		if stalled.Bound > full.Bound {
			t.Fatalf("seed %d: stalled bound %.6f exceeds full-ascent bound %.6f", seed, stalled.Bound, full.Bound)
		}
		if stalled.Stalled {
			sawStall = true
			// The stalled run is a prefix of the full run (it can tie
			// only when the full ascent ended at the same iterate).
			if stalled.Iterations > full.Iterations {
				t.Fatalf("seed %d: stalled after %d iterates, full ascent ran %d", seed, stalled.Iterations, full.Iterations)
			}
		}
	}
	if !sawStall {
		t.Fatal("no instance stalled: the early-termination path went unexercised")
	}
}
