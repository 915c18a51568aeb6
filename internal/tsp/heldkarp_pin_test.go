package tsp

import (
	"math"
	"math/rand"
	"testing"
)

// This file pins the Held-Karp ascent's trajectory on seeded instances:
// for each case the exact bound bits, iterate count and flags of two
// ascent configurations. Any change to the subgradient driver, the budget
// checks or the 1-tree kernel that moves a single float shows up here.

// hkPin is the observable outcome of one HeldKarpBound call.
type hkPin struct {
	bound uint64 // math.Float64bits(Bound)
	iters int
	flags string // subset of "TC": Truncated, Converged
}

func pinOf(r BoundResult) hkPin {
	p := hkPin{bound: math.Float64bits(r.Bound), iters: r.Iterations}
	if r.Truncated {
		p.flags += "T"
	}
	if r.Converged {
		p.flags += "C"
	}
	return p
}

// hkPinOptions are the pinned configurations: the size-based default
// schedule and a short fixed schedule.
var hkPinOptions = [...]HeldKarpOptions{
	{},
	{Iterations: 60},
}

// hkPinRuns runs sp under every hkPinOptions entry.
func hkPinRuns(sp *SparseMatrix) (runs [len(hkPinOptions)]hkPin) {
	for k, opt := range hkPinOptions {
		runs[k] = pinOf(HeldKarpBound(sp, opt))
	}
	return runs
}

// hiddenRing is a random instance with a cheap directed ring i -> i+1
// under an expensive row default. Its ascent climbs for a while and then
// converges: the 1-tree becomes a tour.
func hiddenRing(n int, seed int64) *SparseMatrix {
	rng := rand.New(rand.NewSource(seed))
	b := NewSparseBuilder(n)
	for i := 0; i < n; i++ {
		var cols []int
		var vals []Cost
		for j := 0; j < n; j++ {
			switch {
			case j == (i+1)%n:
				cols = append(cols, j)
				vals = append(vals, Cost(5+rng.Int63n(10)))
			case j != i && rng.Float64() < 0.1:
				cols = append(cols, j)
				vals = append(vals, Cost(rng.Int63n(40)))
			}
		}
		b.AddRow(100, cols, vals)
	}
	return b.Finish()
}

func TestHeldKarpTrajectoryPinned(t *testing.T) {
	for _, tc := range hkTrajectoryCases {
		sp := hiddenRing(tc.n, tc.seed)
		if tc.maxCost > 0 {
			sp = randSparse(tc.n, tc.maxCost, tc.excProb, tc.seed)
		}
		runs := hkPinRuns(sp)
		for k := range runs {
			if runs[k] != tc.runs[k] {
				t.Errorf("n=%d seed=%d run %d: got {%#x, %d, %q}, want {%#x, %d, %q}",
					tc.n, tc.seed, k, runs[k].bound, runs[k].iters, runs[k].flags,
					tc.runs[k].bound, tc.runs[k].iters, tc.runs[k].flags)
			}
		}
	}
}

// hkTrajectoryCases were recorded from the two-copy ascent this driver
// replaced. Runs are in hkPinOptions order. A zero maxCost selects
// hiddenRing(n, seed) instead of randSparse.
var hkTrajectoryCases = []struct {
	n       int
	maxCost int64
	excProb float64
	seed    int64
	runs    [len(hkPinOptions)]hkPin
}{
	{3, 40, 0.5, 1, [2]hkPin{{0x402bd225b274cc10, 124, ""}, {0x402be401a6aa13e0, 60, ""}}},
	{4, 7, 0.4, 2, [2]hkPin{{0x3ff0000000000000, 2, ""}, {0x3ff0000000000000, 2, ""}}},
	{5, 100, 0.3, 3, [2]hkPin{{0x40715fca2d99f480, 140, ""}, {0x4070dd552e0a7e90, 60, ""}}},
	{6, 1000, 0.5, 4, [2]hkPin{{0x4081793adf19a300, 148, ""}, {0x408187c5c8553580, 60, ""}}},
	{8, 300, 0.2, 5, [2]hkPin{{0x408a57f7c9403300, 164, ""}, {0x408a01fad5032080, 60, ""}}},
	{10, 60, 0.35, 6, [2]hkPin{{0x40651c46f1908680, 180, ""}, {0x4064d0ef05ec4280, 60, ""}}},
	{12, 7, 0.3, 7, [2]hkPin{{0x402bea71f770ae00, 196, ""}, {0x402be0d541d08200, 60, ""}}},
	{16, 500, 0.25, 8, [2]hkPin{{0x40a04e1f79004800, 228, ""}, {0x40a04e2e0b415400, 60, ""}}},
	{20, 120, 0.2, 9, [2]hkPin{{0x40860e7977c4c200, 260, ""}, {0x40861788a7100200, 60, ""}}},
	{24, 2000, 0.15, 10, [2]hkPin{{0x40c3bb2ca8dc2400, 292, ""}, {0x40c3b83faf23e000, 60, ""}}},
	{31, 40, 0.3, 11, [2]hkPin{{0x40660ecc94705000, 348, ""}, {0x40657804a1f62000, 60, ""}}},
	{40, 400, 0.2, 12, [2]hkPin{{0x409fc0c7a7104000, 420, ""}, {0x409fb67a86e68000, 60, ""}}},
	{48, 100000, 0.1, 13, [2]hkPin{{0x412d497655e18000, 484, ""}, {0x412cd1da30c76000, 60, ""}}},
	{60, 500, 0.15, 14, [2]hkPin{{0x40add1efcabcc000, 580, ""}, {0x40ad98939ec3c000, 60, ""}}},
	{64, 7, 0.4, 15, [2]hkPin{{0x0, 612, ""}, {0x0, 60, ""}}},
	{80, 1000, 0.1, 16, [2]hkPin{{0x40c35aa1fdbb8000, 740, ""}, {0x40c2dc35ed364000, 60, ""}}},
	{96, 250, 0.08, 17, [2]hkPin{{0x40a8905861870000, 868, ""}, {0x40a6db9148e68000, 60, ""}}},
	{100, 3000, 0.05, 18, [2]hkPin{{0x40eb8d97a1ff0000, 900, ""}, {0x40e6c8e19a8c8000, 60, ""}}},
	{110, 50, 0.2, 19, [2]hkPin{{0x4072e6290a780000, 980, ""}, {0x4072cf77797b0000, 60, ""}}},
	{120, 800, 0.12, 20, [2]hkPin{{0x40bd7419b26e0000, 1000, ""}, {0x40bbab5f141c0000, 60, ""}}},
	{127, 400, 0.1, 21, [2]hkPin{{0x40b22b2ef64a0000, 1000, ""}, {0x40b0f478a3850000, 60, ""}}},
	{128, 10, 0.3, 22, [2]hkPin{{0x3fe81aad88000000, 1000, ""}, {0x0, 60, ""}}},
	{129, 500, 0.15, 23, [2]hkPin{{0x40b27dab01b40000, 1000, ""}, {0x40b1b27c95480000, 60, ""}}},
	{130, 2000, 0.06, 24, [2]hkPin{{0x40e27aaa67d00000, 1000, ""}, {0x40dea5fafa2c0000, 60, ""}}},
	{9, 0, 0, 0, [2]hkPin{{0x40583ffffffffe00, 46, "C"}, {0x40583ffffffffe00, 12, "C"}}},
	{20, 0, 0, 2, [2]hkPin{{0x40655ffffffff000, 227, "C"}, {0x40655ffffffff000, 56, "C"}}},
	{40, 0, 0, 4, [2]hkPin{{0x407657afb1bb0000, 420, ""}, {0x40763009a5390000, 60, ""}}},
}
