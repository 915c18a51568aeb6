package tsp

import (
	"fmt"
	"testing"
)

func TestSolveExactMatchesBruteForce(t *testing.T) {
	for n := 3; n <= 8; n++ {
		for seed := int64(0); seed < 4; seed++ {
			m := randMatrix(n, 100, seed*31+int64(n))
			dpTour, dpCost := SolveExact(m)
			bfTour, bfCost := solveBruteForce(m)
			if dpCost != bfCost {
				t.Fatalf("n=%d seed=%d: DP %d != brute force %d", n, seed, dpCost, bfCost)
			}
			if !dpTour.Valid(n) || !bfTour.Valid(n) {
				t.Fatalf("n=%d seed=%d: invalid tour returned", n, seed)
			}
			if CycleCost(m, dpTour) != dpCost {
				t.Fatalf("n=%d seed=%d: DP tour does not realize its cost", n, seed)
			}
		}
	}
}

func TestSolveExactTinyInstances(t *testing.T) {
	m1 := NewMatrix(1)
	tour, cost := SolveExact(m1.Sparse())
	if cost != 0 || len(tour) != 1 || tour[0] != 0 {
		t.Fatalf("n=1: got tour %v cost %d", tour, cost)
	}
	m2 := fromRows([][]Cost{{0, 3}, {4, 0}})
	tour, cost = SolveExact(m2.Sparse())
	if cost != 7 || !tour.Valid(2) {
		t.Fatalf("n=2: got tour %v cost %d, want cost 7", tour, cost)
	}
}

func TestSolveExactRespectsAsymmetry(t *testing.T) {
	// Going 0->1->2->0 costs 3; reversed costs 30. The DP must find 3.
	m := fromRows([][]Cost{
		{0, 1, 10},
		{10, 0, 1},
		{1, 10, 0},
	})
	tour, cost := SolveExact(m.Sparse())
	if cost != 3 {
		t.Fatalf("cost %d, want 3 (tour %v)", cost, tour)
	}
}

func TestSolveExactPanicsAboveLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SolveExact should panic above MaxExactCities")
		}
	}()
	SolveExact(NewMatrix(MaxExactCities + 1).Sparse())
}

func TestSolveBruteForcePanicsAboveLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("solveBruteForce should panic above its limit")
		}
	}()
	solveBruteForce(NewMatrix(11))
}

// solveBruteForce exhaustively enumerates all (n-1)! cyclic
// permutations, the oracle the exact and heuristic solvers are checked
// against. It panics above 10 cities.
func solveBruteForce(m Costs) (Tour, Cost) {
	n := m.Len()
	if n > 10 {
		panic(fmt.Sprintf("solveBruteForce: %d cities is too many", n))
	}
	if n == 1 {
		return Tour{0}, 0
	}
	perm := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		perm = append(perm, i)
	}
	best := Tour(nil)
	var bestCost Cost
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			t := append(Tour{0}, perm...)
			c := cycleCost(m, t)
			if best == nil || c < bestCost {
				best = t.Clone()
				bestCost = c
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best, bestCost
}
