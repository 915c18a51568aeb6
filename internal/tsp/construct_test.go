package tsp

import (
	"cmp"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// greedyTour is GreedyEdge over the candidate lists Solve builds.
func greedyTour(m *SparseMatrix, rng *rand.Rand) Tour {
	return GreedyEdge(m, BuildNeighbors(m), rng)
}

// greedyEdgeAllPairs is the greedy construction over all n(n-1) directed
// edges: rank every edge by (key, from, to), accept under the degree and
// subcycle rules, then stitch the chains left over in index order of
// their heads. It is the frozen oracle for GreedyEdge, which ranks only
// the candidate lists.
func greedyEdgeAllPairs(m *SparseMatrix) Tour {
	n := m.Len()
	type edge struct {
		from, to int
		key      float64
	}
	edges := make([]edge, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			edges = append(edges, edge{i, j, float64(m.At(i, j))})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		if a.from != b.from {
			return a.from - b.from
		}
		return a.to - b.to
	})
	next := make([]int, n)
	prev := make([]int, n)
	chainEnd := make([]int, n)
	for i := range next {
		next[i], prev[i], chainEnd[i] = -1, -1, i
	}
	accepted := 0
	for _, e := range edges {
		if accepted == n-1 {
			break
		}
		if next[e.from] != -1 || prev[e.to] != -1 || chainEnd[e.from] == e.to {
			continue
		}
		next[e.from] = e.to
		prev[e.to] = e.from
		newHead, newTail := chainEnd[e.from], chainEnd[e.to]
		chainEnd[newHead] = newTail
		chainEnd[newTail] = newHead
		accepted++
	}
	tour := make(Tour, 0, n)
	for i := 0; i < n; i++ {
		if prev[i] == -1 {
			for c := i; c != -1; c = next[c] {
				tour = append(tour, c)
			}
		}
	}
	return tour
}

// TestQuickGreedyEdgeMatchesAllPairsOracle: up to DefaultNeighborCount+1
// cities the candidate lists hold every edge, so the deterministic
// greedy must accept exactly the oracle's edges and return its tour.
// Small cost ranges force ties, which the (key, from, to) order breaks.
func TestQuickGreedyEdgeMatchesAllPairsOracle(t *testing.T) {
	f := func(nRaw, costRaw, excRaw uint8, seed int64) bool {
		n := int(nRaw)%(DefaultNeighborCount+1) + 1
		maxCost := int64(costRaw)%50 + 1
		excProb := float64(excRaw) / 255
		m := randSparse(n, maxCost, excProb, seed)
		return reflect.DeepEqual(greedyTour(m, nil), greedyEdgeAllPairs(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveLargeHonorsDeadline: a 4,096-city solve under a 50 ms context
// returns within a second. The construction never polls the context, so
// a greedy start that ranks all n(n-1) edges overruns this by seconds.
func TestSolveLargeHonorsDeadline(t *testing.T) {
	m := randSparse(4096, 1000, 3.0/4096, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	res := Solve(m, SolveOptions{Seed: 1, Context: ctx})
	if took := time.Since(begin); took > time.Second {
		t.Errorf("Solve under a 50 ms context took %v", took)
	}
	if !res.Tour.Valid(4096) {
		t.Fatal("truncated solve returned an invalid tour")
	}
}

// TestGreedyEdgeMemoryLinear: a greedy start at 4,096 cities allocates
// O(n·k) bytes, well under the 400 MB an all-pairs edge list takes.
func TestGreedyEdgeMemoryLinear(t *testing.T) {
	m := randSparse(4096, 1000, 3.0/4096, 2)
	nb := BuildNeighbors(m)
	rng := rand.New(rand.NewSource(3))
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GreedyEdge(m, nb, rng)
		}
	})
	if got := r.AllocedBytesPerOp(); got > 16<<20 {
		t.Fatalf("GreedyEdge allocates %d B/op at 4,096 cities, ceiling %d", got, 16<<20)
	}
}

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
		tour := greedyTour(m, nil)
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
	tour := greedyTour(m.Sparse(), nil)
	if got := cycleCost(m, tour); got != Cost(n) {
		t.Fatalf("GreedyEdge cost %d, want %d (tour %v)", got, n, tour)
	}
}

func TestGreedyEdgeRandomizedValidAndDeterministic(t *testing.T) {
	m := randMatrix(25, 500, 77)
	a := greedyTour(m, rand.New(rand.NewSource(7)))
	b := greedyTour(m, rand.New(rand.NewSource(7)))
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
	tour := greedyTour(m, nil)
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
