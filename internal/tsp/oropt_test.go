package tsp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickOrOptImprovesLocalOptimum pins the Or-opt family's value
// proposition: restarting from a pure-3-opt local optimum with Or-opt
// enabled never worsens the tour (the 3-opt family finds nothing there,
// so every applied move is an improving relocation), keeps it a valid
// permutation, and maintains the incremental cost exactly.
func TestQuickOrOptImprovesLocalOptimum(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%40) + 4
		m := randMatrix(n, 1000, int64(seedRaw)+21)
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		start := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { start[i], start[j] = start[j], start[i] })

		pure := NewThreeOpt(m, nil, start)
		c1 := pure.Optimize()
		both := NewThreeOpt(m, nil, pure.AppendTour(nil))
		both.SetOrOpt(true)
		c2 := both.Optimize()
		tour := both.AppendTour(nil)
		return tour.Valid(n) && c2 <= c1 && CycleCost(m, tour) == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
