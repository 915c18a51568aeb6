package tsp

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Property-based tests over randomly generated instances, per the
// invariants listed in DESIGN.md.

func TestQuickThreeOptProducesValidToursAndNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%18) + 3
		m := randMatrix(n, 1000, int64(seedRaw))
		start := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { start[i], start[j] = start[j], start[i] })
		before := CycleCost(m, start)
		o := newSearch(m, start)
		after := o.Optimize()
		return o.AppendTour(nil).Valid(n) && after <= before && CycleCost(m, o.AppendTour(nil)) == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSymEmbeddingPreservesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%12) + 2
		m := randMatrix(n, 500, int64(seedRaw)+1)
		s := Symmetrize(m)
		dir := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { dir[i], dir[j] = dir[j], dir[i] })
		emb := s.FromDirected(dir)
		if SymCycleCost(s, emb) != CycleCost(m, dir) {
			return false
		}
		back, err := s.ToDirected(emb)
		if err != nil {
			return false
		}
		back.RotateTo(dir[0])
		for i := range dir {
			if back[i] != dir[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBoundSandwich(t *testing.T) {
	// AP <= optimum and HK <= optimum <= iterated-3-opt tour, on instances
	// small enough to solve exactly.
	f := func(seedRaw uint16) bool {
		n := 7
		m := randMatrix(n, 300, int64(seedRaw)+7)
		_, opt := SolveExact(m)
		if AssignmentBound(m) > opt {
			return false
		}
		if HeldKarpBound(m, HeldKarpOptions{Iterations: 120}).Bound > float64(opt)+1e-6 {
			return false
		}
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		_, heur := iteratedRun(m, greedyTour(m, nil), 2*n, rng)
		return heur >= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConstructionsAreValid(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%25) + 1
		m := randMatrix(n, 1000, int64(seedRaw)+3)
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		if !NearestNeighbor(m, rng.Intn(n), rng).Valid(n) {
			return false
		}
		if !greedyTour(m, rng).Valid(n) {
			return false
		}
		return NearestNeighbor(m, 0, nil).Valid(n) && greedyTour(m, nil).Valid(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDenseNeighborsMatchStableSort pins BuildNeighbors on dense
// instances against a full stable by-cost sort: identical lists for
// every row, on instances narrower and wider than DefaultNeighborCount
// (ties broken by city index in both), with OutCost/InCost holding each
// listed edge's cost. Costs are drawn from a tiny range so ties are
// dense.
func TestQuickDenseNeighborsMatchStableSort(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%30) + 2
		m := randMatrix(n, 7, int64(seedRaw))
		nb := BuildNeighbors(m)
		take := min(DefaultNeighborCount, n-1)
		idx := make([]int, 0, n)
		for i := 0; i < n; i++ {
			for dir := 0; dir < 2; dir++ {
				idx = idx[:0]
				at := func(j int) Cost { return m.At(i, j) }
				got, gotCost := nb.Out[i], nb.OutCost[i]
				if dir == 1 {
					at = func(j int) Cost { return m.At(j, i) }
					got, gotCost = nb.In[i], nb.InCost[i]
				}
				for j := 0; j < n; j++ {
					if j != i {
						idx = append(idx, j)
					}
				}
				sort.SliceStable(idx, func(a, b int) bool { return at(idx[a]) < at(idx[b]) })
				if len(got) != take || len(gotCost) != take {
					return false
				}
				for p := 0; p < take; p++ {
					if got[p] != idx[p] || gotCost[p] != at(idx[p]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
