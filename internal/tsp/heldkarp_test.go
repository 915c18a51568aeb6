package tsp

import (
	"math"
	"testing"
)

func TestHeldKarpSymNeverExceedsOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := randSymMatrix(9, 200, seed)
		_, opt := SolveExact(m.Sparse())
		bound := heldKarpSym(m, HeldKarpOptions{Iterations: 150}).Bound
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
	bound := heldKarpSym(m, HeldKarpOptions{Iterations: 150}).Bound
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
		_, opt := SolveExact(m.Sparse())
		bound := heldKarpSym(m, HeldKarpOptions{Iterations: 150}).Bound
		if bound < 0.8*float64(opt) {
			t.Errorf("seed %d: HK bound %.1f is below 80%% of optimum %d", seed, bound, opt)
		}
	}
}

func TestHeldKarpDirectedBoundsDTSPOptimum(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := randMatrix(8, 300, seed+70)
		_, opt := SolveExact(m)
		bound := HeldKarpBound(m, HeldKarpOptions{Iterations: 150}).Bound
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
		c    *SparseMatrix
		want float64
	}{
		{"one/dense", explicit(NewMatrix(1).Sparse()), 0},
		{"one/sparse", NewMatrix(1).Sparse(), 0},
		{"two/symmetric", fromRows([][]Cost{{0, 2}, {2, 0}}).Sparse(), 4},
		{"two/asymmetric", explicit(fromRows([][]Cost{{0, 3}, {9, 0}}).Sparse()), 12},
		{"two/sparse", fromRows([][]Cost{{0, 3}, {9, 0}}).Sparse(), 12},
	} {
		got := HeldKarpBound(tc.c, HeldKarpOptions{Iterations: 150})
		want := BoundResult{Bound: tc.want, Converged: true}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, want)
		}
	}
}
