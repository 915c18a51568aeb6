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
// the others take iterated local search. Any kernel change that moves a
// single tour (a different move order, a reseeded stream, a cost read
// that disagrees with At) shows up here.
func TestSolvePinned(t *testing.T) {
	cases := []struct {
		blocks int
		hash   uint64
		cost   tsp.Cost
	}{
		{12, 0xc9219cb9fedbdd5, 2676828},
		{60, 0x7c6fe90450478935, 16445556},
		{200, 0xd4dfae368da68f15, 48470113},
		{300, 0x65281e3ab12fb8b5, 61346034},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.blocks), func(t *testing.T) {
			mod, prof, err := bench.Synthesize(bench.DefaultSynth(tc.blocks, int64(tc.blocks)*13))
			if err != nil {
				t.Fatal(err)
			}
			sp := align.BuildSparseMatrix(mod.Funcs[0], prof.Funcs[0], machine.Alpha21164(), nil)
			opts := tsp.PaperSolveOptions(1)
			opts.Parallelism = -1 // bit-identical at every setting
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
