package tsp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// iteratedPure runs one iterated-3-opt run of the solver (pure 3-opt, no
// telemetry, no budget) and returns its best tour and cost.
func iteratedPure(m *SparseMatrix, start Tour, iters int, rng *rand.Rand) (Tour, Cost) {
	t, c, _ := iteratedThreeOpt(m, nil, nil, start, iters, rng, nil, nil, false)
	return t, c
}

func TestThreeOptNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		m := randMatrix(20, 1000, seed)
		start := IdentityTour(20)
		before := CycleCost(m, start)
		o := NewThreeOpt(m, nil, start)
		after := o.Optimize()
		if after > before {
			t.Fatalf("seed %d: 3-opt worsened tour: %d -> %d", seed, before, after)
		}
		if !o.AppendTour(nil).Valid(20) {
			t.Fatalf("seed %d: 3-opt produced invalid tour", seed)
		}
	}
}

func TestThreeOptIncrementalCostMatchesRecomputed(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		m := randMatrix(15, 500, seed+100)
		o := NewThreeOpt(m, nil, IdentityTour(15))
		got := o.Optimize()
		want := CycleCost(m, o.AppendTour(nil))
		if got != want {
			t.Fatalf("seed %d: incremental cost %d != recomputed %d", seed, got, want)
		}
	}
}

func TestThreeOptReachesOptimumOnRingInstance(t *testing.T) {
	// Cheap ring hidden in an expensive clique; 3-opt from a scrambled
	// start should find it (the ring is the unique optimum).
	n := 12
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 50)
			}
		}
	}
	for i := 0; i < n; i++ {
		m.Set(i, (i+1)%n, 1)
	}
	rng := rand.New(rand.NewSource(3))
	start := IdentityTour(n)
	rng.Shuffle(n, func(i, j int) { start[i], start[j] = start[j], start[i] })
	tour, cost := iteratedPure(m.Sparse(), start, 4*n, rng)
	if !tour.Valid(n) {
		t.Fatal("invalid tour")
	}
	if cost != Cost(n) {
		t.Fatalf("iterated 3-opt cost %d, want %d (tour %v)", cost, n, tour)
	}
}

func TestThreeOptSmallInstances(t *testing.T) {
	// n = 1, 2, 3 must not panic and must keep valid tours.
	for n := 1; n <= 3; n++ {
		m := randMatrix(n, 100, int64(n))
		o := NewThreeOpt(m, nil, IdentityTour(n))
		o.Optimize()
		if !o.AppendTour(nil).Valid(n) {
			t.Fatalf("n=%d: invalid tour after optimize", n)
		}
	}
}

func TestThreeOptFlipsTriangle(t *testing.T) {
	// With 3 cities there are exactly two directed cycles; 3-opt must pick
	// the cheaper one.
	m := fromRows([][]Cost{
		{0, 100, 1},
		{1, 0, 100},
		{100, 1, 0},
	})
	// Identity (0,1,2) costs 300; reversed (0,2,1) costs 3.
	o := NewThreeOpt(m.Sparse(), nil, IdentityTour(3))
	got := o.Optimize()
	if got != 3 {
		t.Fatalf("3-opt on triangle: cost %d, want 3 (tour %v)", got, o.AppendTour(nil))
	}
}

func TestThreeOptNearOptimalOnRandomInstances(t *testing.T) {
	// Compare against the exact DP on instances small enough to solve.
	for seed := int64(0); seed < 8; seed++ {
		n := 9
		m := randMatrix(n, 1000, seed+500)
		_, opt := SolveExact(m)
		rng := rand.New(rand.NewSource(seed))
		tour, cost := iteratedPure(m, GreedyEdge(m, nil), 6*n, rng)
		if cost < opt {
			t.Fatalf("seed %d: heuristic cost %d below proven optimum %d", seed, cost, opt)
		}
		if CycleCost(m, tour) != cost {
			t.Fatalf("seed %d: reported cost mismatch", seed)
		}
		if float64(cost) > 1.15*float64(opt) {
			t.Errorf("seed %d: iterated 3-opt %d is more than 15%% above optimum %d", seed, cost, opt)
		}
	}
}

func TestDoubleBridgePreservesPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(nRaw uint8) bool {
		n := int(nRaw%30) + 1
		tour := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { tour[i], tour[j] = tour[j], tour[i] })
		kicked, _, _ := doubleBridge(nil, tour, rng, nil, 0)
		return kicked.Valid(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleBridgeSmallToursUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n < 4; n++ {
		tour := IdentityTour(n)
		kicked, _, _ := doubleBridge(nil, tour, rng, nil, 0)
		for i := range tour {
			if kicked[i] != tour[i] {
				t.Fatalf("n=%d: kick changed a tour too small to cut", n)
			}
		}
	}
}

func TestDoubleBridgeActuallyPerturbs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tour := IdentityTour(20)
	changed := false
	for i := 0; i < 10; i++ {
		kicked, _, _ := doubleBridge(nil, tour, rng, nil, 0)
		for j := range kicked {
			if kicked[j] != tour[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("double bridge never changed a 20-city tour in 10 tries")
	}
}

func TestSolvePaperProtocol(t *testing.T) {
	m := randMatrix(30, 1000, 424242)
	res := Solve(m, SolveOptions{Seed: 1})
	if !res.Tour.Valid(30) {
		t.Fatal("Solve returned invalid tour")
	}
	if res.Exact {
		t.Fatal("30-city instance should not be solved exactly")
	}
	if res.Runs != 10 {
		t.Fatalf("paper protocol should run 10 starts, got %d", res.Runs)
	}
	if res.RunsAtBest < 1 || res.RunsAtBest > res.Runs {
		t.Fatalf("RunsAtBest = %d out of range", res.RunsAtBest)
	}
	if CycleCost(m, res.Tour) != res.Cost {
		t.Fatal("reported cost does not match tour")
	}
	// The heuristic must beat plain nearest neighbor.
	nn := CycleCost(m, NearestNeighbor(m, 0, nil))
	if res.Cost > nn {
		t.Fatalf("solver cost %d worse than raw NN %d", res.Cost, nn)
	}
}

func TestSolveUsesExactForSmallInstances(t *testing.T) {
	m := randMatrix(8, 1000, 3)
	res := Solve(m, SolveOptions{Seed: 1})
	if !res.Exact {
		t.Fatal("8-city instance should be solved exactly")
	}
	_, opt := solveBruteForce(m)
	if res.Cost != opt {
		t.Fatalf("exact path returned %d, brute force says %d", res.Cost, opt)
	}
}

func TestSolveDeterministic(t *testing.T) {
	m := randMatrix(25, 1000, 99)
	a := Solve(m, SolveOptions{Seed: 7})
	b := Solve(m, SolveOptions{Seed: 7})
	if a.Cost != b.Cost {
		t.Fatalf("same seed, different costs: %d vs %d", a.Cost, b.Cost)
	}
	for i := range a.Tour {
		if a.Tour[i] != b.Tour[i] {
			t.Fatal("same seed, different tours")
		}
	}
}
