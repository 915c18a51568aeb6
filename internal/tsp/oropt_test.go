package tsp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickOptimizeLeavesNoImprovingMove pins Optimize's contract with
// both move families. A city is marked don't-look when neither family
// improves from it, but a later move elsewhere can open a move from a
// city whose own edges it did not touch (n=44, seed 44629, sparse is
// one), so a single Optimize is locally optimal only up to its don't-look
// bits. Re-queueing every city (SetTour on the current tour) and
// optimizing again until a pass applies no move must therefore end at a
// tour from which neither the 3-opt segment exchange nor the Or-opt
// relocation improves from any city. Every pass must keep the tour a
// valid permutation with an exact incremental cost, and no pass may
// raise the cost. Each search applies the first move it finds, so a
// failing city also changes the tour.
func TestQuickOptimizeLeavesNoImprovingMove(t *testing.T) {
	f := func(nRaw, seedRaw uint16, sparse bool) bool {
		n := int(nRaw%60) + 4
		m := randMatrix(n, 1000, int64(seedRaw)+21)
		if sparse {
			m = randSparse(n, 1000, 0.2, int64(seedRaw)+21)
		}
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		start := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { start[i], start[j] = start[j], start[i] })

		o := newSearch(m, start)
		prev := CycleCost(m, start)
		for {
			// Every applied move lowers the cost, so an unchanged cost
			// means the pass applied none.
			c := o.Optimize()
			tour := o.AppendTour(nil)
			if !tour.Valid(n) || CycleCost(m, tour) != c || c > prev {
				return false
			}
			if c == prev {
				break
			}
			prev = c
			o.SetTour(tour)
		}
		for a := 0; a < n; a++ {
			if o.improveFrom(a) || o.orOptFrom(a) {
				t.Logf("n=%d seed=%d sparse=%v: improving move from city %d", n, seedRaw, sparse, a)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
