package tsp

import (
	"math/rand"
	"testing"
)

func TestSymCostsMirrorDirectedCosts(t *testing.T) {
	m := randMatrix(6, 100, 1)
	s := Symmetrize(m)
	if s.Len() != 12 {
		t.Fatalf("Len = %d, want 12", s.Len())
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			a := s.OutNode(i)
			b := s.InNode(j)
			if got := s.Cost(a, b); got != m.At(i, j) {
				t.Fatalf("Cost(out %d, in %d) = %d, want %d", i, j, got, m.At(i, j))
			}
			if got := s.Cost(b, a); got != m.At(i, j) {
				t.Fatalf("symmetric mirror broken for (%d,%d)", i, j)
			}
		}
	}
	forbid := m.Forbid()
	if got := s.Cost(s.InNode(0), s.InNode(1)); got != forbid {
		t.Fatalf("in-in edge should be forbidden, got %d", got)
	}
	if got := s.Cost(s.OutNode(0), s.OutNode(1)); got != forbid {
		t.Fatalf("out-out edge should be forbidden, got %d", got)
	}
	if got := s.Cost(s.InNode(2), s.OutNode(2)); got != 0 {
		t.Fatalf("locked edge should cost 0, got %d", got)
	}
	if !s.Locked(s.InNode(3), s.OutNode(3)) {
		t.Fatal("Locked should report intra-city pairs")
	}
	if s.Locked(s.InNode(3), s.InNode(3)) {
		t.Fatal("a node is not locked to itself")
	}
	if s.Locked(s.OutNode(3), s.InNode(4)) {
		t.Fatal("inter-city pairs are not locked")
	}
}

func TestSymRoundTripPreservesTourAndCost(t *testing.T) {
	m := randMatrix(9, 500, 2)
	s := Symmetrize(m)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		dir := IdentityTour(9)
		rng.Shuffle(9, func(i, j int) { dir[i], dir[j] = dir[j], dir[i] })
		symTour := s.FromDirected(dir)
		if !symTour.Valid(18) {
			t.Fatal("embedded tour is not a permutation")
		}
		if got, want := SymCycleCost(s, symTour), CycleCost(m, dir); got != want {
			t.Fatalf("sym cost %d != directed cost %d", got, want)
		}
		back, err := s.ToDirected(symTour)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		back.RotateTo(dir[0])
		for i := range dir {
			if back[i] != dir[i] {
				t.Fatalf("round trip changed tour: %v vs %v", back, dir)
			}
		}
	}
}

func TestSymToDirectedHandlesReversedOrientation(t *testing.T) {
	m := randMatrix(5, 100, 3)
	s := Symmetrize(m)
	dir := Tour{0, 2, 4, 1, 3}
	symTour := s.FromDirected(dir)
	// Reverse the symmetric tour; an undirected cycle read backward is the
	// same cycle, so conversion must still succeed and produce the same
	// directed tour.
	rev := make(Tour, len(symTour))
	for i, v := range symTour {
		rev[len(symTour)-1-i] = v
	}
	back, err := s.ToDirected(rev)
	if err != nil {
		t.Fatalf("reversed conversion failed: %v", err)
	}
	back.RotateTo(0)
	dirRot := dir.Clone()
	dirRot.RotateTo(0)
	for i := range dirRot {
		if back[i] != dirRot[i] {
			t.Fatalf("reversed round trip mismatch: %v vs %v", back, dirRot)
		}
	}
}

func TestSymToDirectedRejectsBrokenLocks(t *testing.T) {
	m := randMatrix(4, 100, 5)
	s := Symmetrize(m)
	// A permutation of the 8 symmetric nodes that separates city 0's pair.
	bad := Tour{0, 2, 1, 3, 4, 5, 6, 7}
	if _, err := s.ToDirected(bad); err == nil {
		t.Fatal("expected error for tour with a broken locked pair")
	}
	if _, err := s.ToDirected(Tour{0, 1}); err == nil {
		t.Fatal("expected error for wrong-length tour")
	}
}

// TestThreeOptMatchesSymmetricModel verifies the central claim behind the
// solver architecture: the directed reversal-free 3-opt operates exactly
// on the lock-respecting symmetric model, so any directed tour it returns
// embeds into the symmetric instance with identical cost, and the
// symmetric instance's optimum equals the directed optimum.
func TestThreeOptMatchesSymmetricModel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m := randMatrix(7, 200, seed+900)
		s := Symmetrize(m)

		o := newSearch(m, IdentityTour(7))
		cost := o.Optimize()
		emb := s.FromDirected(o.AppendTour(nil))
		if got := SymCycleCost(s, emb); got != cost {
			t.Fatalf("seed %d: embedded cost %d != directed cost %d", seed, got, cost)
		}

		// The materialized matrix carries -LockCost on locked edges, so
		// unconstrained optimization is forced through every lock and its
		// optimum is the directed optimum shifted by n*LockCost.
		_, dirOpt := SolveExact(m)
		symM := s.Matrix()
		if !symmetric(symM) {
			t.Fatal("materialized sym matrix is not symmetric")
		}
		symTour, symOpt := SolveExact(symM.Sparse())
		if want := dirOpt - Cost(m.Len())*s.LockCost(); symOpt != want {
			t.Fatalf("seed %d: symmetric optimum %d != shifted directed optimum %d", seed, symOpt, want)
		}
		// And the optimal symmetric tour must decode back to a directed
		// tour realizing the directed optimum.
		back, err := s.ToDirected(symTour)
		if err != nil {
			t.Fatalf("seed %d: optimal symmetric tour broke a lock: %v", seed, err)
		}
		if got := CycleCost(m, back); got != dirOpt {
			t.Fatalf("seed %d: decoded tour costs %d, want %d", seed, got, dirOpt)
		}
	}
}

// symmetric reports whether m.At(i, j) == m.At(j, i) for every pair.
func symmetric(m *Matrix) bool {
	for i := 0; i < m.Len(); i++ {
		for j := i + 1; j < m.Len(); j++ {
			if m.At(i, j) != m.At(j, i) {
				return false
			}
		}
	}
	return true
}
