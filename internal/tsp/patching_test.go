package tsp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func TestPatchingProducesValidTours(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 30} {
		m := randMatrix(n, 500, int64(n)+40)
		tour, cost := mustPatch(m)
		if !tour.Valid(n) {
			t.Fatalf("n=%d: invalid tour %v", n, tour)
		}
		if got := CycleCost(m, tour); got != cost {
			t.Fatalf("n=%d: reported cost %d != recomputed %d", n, cost, got)
		}
	}
}

func TestPatchingAtLeastAPBound(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := randMatrix(12, 400, seed+300)
		_, cost := mustPatch(m)
		if ap := AssignmentBound(m); cost < ap {
			t.Fatalf("seed %d: patched tour %d below AP bound %d", seed, cost, ap)
		}
	}
}

func TestPatchingOptimalWhenAPIsATour(t *testing.T) {
	// When the cheapest cycle cover is already a single Hamiltonian ring,
	// patching returns it unchanged: the regime where patching wins.
	n := 8
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 100)
			}
		}
	}
	for i := 0; i < n; i++ {
		m.Set(i, (i+1)%n, 1)
	}
	_, cost := mustPatch(m.Sparse())
	if cost != Cost(n) {
		t.Fatalf("patching cost %d, want %d", cost, n)
	}
}

func TestPatchingNeverBelowOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := randMatrix(8, 300, seed+700)
		_, opt := SolveExact(m)
		_, patched := mustPatch(m)
		if patched < opt {
			t.Fatalf("seed %d: patched %d below optimum %d", seed, patched, opt)
		}
	}
}

// TestPatchingLosesOnLoopyInstances reproduces the appendix's argument in
// miniature: on instances shaped like branch-alignment DTSPs (cheap
// disjoint hot loops), iterated 3-Opt beats patching.
func TestPatchingLosesOnLoopyInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	worse := 0
	trials := 10
	for trial := 0; trial < trials; trial++ {
		n := 24
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m.Set(i, j, Cost(200+rng.Int63n(200)))
				}
			}
		}
		// Several cheap disjoint 3-cycles (hot loops).
		for c := 0; c+3 <= n; c += 3 {
			m.Set(c, c+1, 1)
			m.Set(c+1, c+2, 1)
			m.Set(c+2, c, 1)
		}
		sp := m.Sparse()
		_, patched := mustPatch(sp)
		_, threeOpt := iteratedRun(sp, greedyTour(sp, nil), 3*n, rng)
		if threeOpt < patched {
			worse++
		}
		if threeOpt > patched+Cost(n*60) {
			t.Errorf("trial %d: 3-opt %d far worse than patching %d", trial, threeOpt, patched)
		}
	}
	if worse < trials/2 {
		t.Errorf("3-opt beat patching on only %d/%d loopy instances", worse, trials)
	}
}

// mustPatch is SolvePatching under a context that never cancels.
func mustPatch(m *SparseMatrix) (Tour, Cost) {
	tour, cost, err := SolvePatching(context.Background(), m)
	if err != nil {
		panic(err)
	}
	return tour, cost
}

// TestSolvePatchingCancelled: a cancelled context stops both the
// assignment solve and the patching loop with the context's error.
func TestSolvePatchingCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := randMatrix(30, 100, 1)
	if tour, _, err := SolvePatching(ctx, m); !errors.Is(err, context.Canceled) || tour != nil {
		t.Fatalf("cancelled SolvePatching = %v, %v; want nil tour, context.Canceled", tour, err)
	}
	if sigma, err := AssignmentSolve(ctx, m); !errors.Is(err, context.Canceled) || sigma != nil {
		t.Fatalf("cancelled AssignmentSolve = %v, %v; want nil, context.Canceled", sigma, err)
	}
}
