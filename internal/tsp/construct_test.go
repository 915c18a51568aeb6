package tsp

import (
	"math/rand"
	"testing"
)

func TestNearestNeighborValid(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 25} {
		m := randMatrix(n, 1000, int64(n))
		for start := 0; start < n; start += 3 {
			tour := NearestNeighbor(m, start, nil)
			if !tour.Valid(n) {
				t.Fatalf("n=%d start=%d: invalid tour %v", n, start, tour)
			}
			if tour[0] != start {
				t.Fatalf("n=%d: tour starts at %d, want %d", n, tour[0], start)
			}
		}
	}
}

func TestNearestNeighborPicksCheapest(t *testing.T) {
	// A directed path 0->1->2->3 with cheap edges; NN must follow it.
	m := NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				m.Set(i, j, 100)
			}
		}
	}
	m.Set(0, 1, 1)
	m.Set(1, 2, 1)
	m.Set(2, 3, 1)
	tour := NearestNeighbor(m.Sparse(), 0, nil)
	want := Tour{0, 1, 2, 3}
	for i := range want {
		if tour[i] != want[i] {
			t.Fatalf("NN tour %v, want %v", tour, want)
		}
	}
}

func TestNearestNeighborRandomizedIsValidAndDeterministic(t *testing.T) {
	m := randMatrix(30, 1000, 9)
	a := NearestNeighbor(m, 0, rand.New(rand.NewSource(42)))
	b := NearestNeighbor(m, 0, rand.New(rand.NewSource(42)))
	if !a.Valid(30) {
		t.Fatal("randomized NN tour invalid")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same randomized NN tour")
		}
	}
}

func TestGreedyEdgeValid(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 10, 40} {
		m := randMatrix(n, 1000, int64(100+n))
		tour := GreedyEdge(m, nil)
		if !tour.Valid(n) {
			t.Fatalf("n=%d: GreedyEdge tour invalid: %v", n, tour)
		}
	}
}

func TestGreedyEdgeFollowsObviousCycle(t *testing.T) {
	// Cheap directed ring 0->1->2->3->4->0 inside an expensive clique.
	n := 5
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 1000)
			}
		}
	}
	for i := 0; i < n; i++ {
		m.Set(i, (i+1)%n, 1)
	}
	tour := GreedyEdge(m.Sparse(), nil)
	if got := cycleCost(m, tour); got != Cost(n) {
		t.Fatalf("GreedyEdge cost %d, want %d (tour %v)", got, n, tour)
	}
}

func TestGreedyEdgeRandomizedValidAndDeterministic(t *testing.T) {
	m := randMatrix(25, 500, 77)
	a := GreedyEdge(m, rand.New(rand.NewSource(7)))
	b := GreedyEdge(m, rand.New(rand.NewSource(7)))
	if !a.Valid(25) {
		t.Fatal("randomized greedy tour invalid")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same randomized greedy tour")
		}
	}
}

func TestGreedyEdgeBeatsOrEqualsWorstCase(t *testing.T) {
	// Greedy should do no worse than the reverse-identity tour on average
	// instances; at minimum, it must produce a finite-cost valid tour.
	m := randMatrix(20, 100, 5)
	tour := GreedyEdge(m, nil)
	if c := CycleCost(m, tour); c <= 0 {
		t.Fatalf("unexpected non-positive cost %d", c)
	}
}

func TestIdentityTour(t *testing.T) {
	tour := IdentityTour(4)
	want := Tour{0, 1, 2, 3}
	for i := range want {
		if tour[i] != want[i] {
			t.Fatalf("IdentityTour = %v, want %v", tour, want)
		}
	}
}
