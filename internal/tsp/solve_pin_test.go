package tsp_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
)

// TestSolvePinned pins Solve's tour and cost under the paper protocol on
// synthetic functions of several sizes: 12 blocks takes the exact DP,
// 13 blocks is the first size past it, and the others take iterated
// local search, one of them under a kick budget. Any kernel change that
// moves a single tour (a different move order, a reseeded stream, a cost
// read that disagrees with At) shows up here.
func TestSolvePinned(t *testing.T) {
	cases := []struct {
		blocks   int
		maxKicks int64
		hash     uint64
		cost     tsp.Cost
	}{
		{12, 0, 0xc9219cb9fedbdd5, 2676828},
		{13, 0, 0xd95a9b59d2d2fde9, 4015751},
		{60, 0, 0xa8715b0f56482675, 16445556},
		{200, 0, 0xb26d479e7e7c29d5, 48543377},
		{300, 0, 0xdb89513804231865, 61393364},
		{300, 40, 0xf98af896d72768c1, 64051823},
	}
	for _, tc := range cases {
		name := fmt.Sprint(tc.blocks)
		if tc.maxKicks > 0 {
			name += fmt.Sprintf("_kicks%d", tc.maxKicks)
		}
		t.Run(name, func(t *testing.T) {
			mod, prof, err := bench.Synthesize(bench.DefaultSynth(tc.blocks, int64(tc.blocks)*13))
			if err != nil {
				t.Fatal(err)
			}
			sp := align.BuildSparseMatrix(mod.Funcs[0], prof.Funcs[0], machine.Alpha21164(), nil)
			opts := tsp.SolveOptions{Seed: 1}
			opts.Parallelism = -1 // bit-identical at every setting
			opts.MaxKicks = tc.maxKicks
			res := tsp.Solve(sp, opts)
			if h := tourHash(res.Tour); h != tc.hash || res.Cost != tc.cost {
				t.Errorf("Solve = (hash %#x, cost %d), pinned (hash %#x, cost %d)", h, res.Cost, tc.hash, tc.cost)
			}
		})
	}
}

// tourHash is FNV-1a over the tour's cities.
func tourHash(t tsp.Tour) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range t {
		b[0], b[1], b[2], b[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}
