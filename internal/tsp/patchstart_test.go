package tsp

import "testing"

// TestPatchingStartDominatesPatching: with a patching-seeded run the
// solver can never return a worse tour than SolvePatching itself.
func TestPatchingStartDominatesPatching(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := randMatrix(25, 800, seed+4000)
		_, patched := mustPatch(m)
		opts := PaperSolveOptions(seed)
		opts.ExactThreshold = 0
		opts.PatchingStarts = 1
		res := Solve(m, opts)
		if res.Cost > patched {
			t.Errorf("seed %d: solver with patching start %d worse than raw patching %d",
				seed, res.Cost, patched)
		}
		if res.Runs != 11 {
			t.Errorf("seed %d: expected 11 runs (10 paper + 1 patching), got %d", seed, res.Runs)
		}
	}
}
