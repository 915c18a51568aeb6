package tsp

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// This file pins the Held-Karp ascent's trajectory on seeded instances:
// for each case the exact bound bits, iterate count and flags of several
// ascent configurations, plus a digest of a warm re-run's dual state.
// Any change to the subgradient driver, the stall rule, the budget checks
// or the 1-tree kernel that moves a single float shows up here.

// hkPin is the observable outcome of one HeldKarpBound call.
type hkPin struct {
	bound uint64 // math.Float64bits(Bound)
	iters int
	flags string // subset of "TCS": Truncated, Converged, Stalled
}

func pinOf(r BoundResult) hkPin {
	p := hkPin{bound: math.Float64bits(r.Bound), iters: r.Iterations}
	if r.Truncated {
		p.flags += "T"
	}
	if r.Converged {
		p.flags += "C"
	}
	if r.Stalled {
		p.flags += "S"
	}
	return p
}

// piDigest is an FNV-1a hash over the bit patterns of a dual vector.
func piDigest(pi []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range pi {
		u := math.Float64bits(p)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// hkPinOptions are the pinned configurations: the size-based default
// schedule, a short fixed schedule, the stall rule, and an iterate budget.
var hkPinOptions = [...]HeldKarpOptions{
	{},
	{Iterations: 60},
	{Iterations: 400, StallWindow: 10},
	{Budget: Budget{MaxHKIterations: 17}},
}

// hkPinRuns runs sp under every hkPinOptions entry, then runs a 60-iterate
// ascent twice through one warm state and reports the second (warm) run
// with a digest of the state it leaves behind.
func hkPinRuns(sp *SparseMatrix) (runs [len(hkPinOptions) + 1]hkPin, warmPi uint64) {
	for k, opt := range hkPinOptions {
		runs[k] = pinOf(HeldKarpBound(sp, opt))
	}
	warm := &HKWarmState{}
	HeldKarpBound(sp, HeldKarpOptions{Iterations: 60, Warm: warm})
	runs[len(hkPinOptions)] = pinOf(HeldKarpBound(sp, HeldKarpOptions{Iterations: 60, Warm: warm}))
	return runs, piDigest(warm.Pi)
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
		runs, warmPi := hkPinRuns(sp)
		for k := range runs {
			if runs[k] != tc.runs[k] {
				t.Errorf("n=%d seed=%d run %d: got {%#x, %d, %q}, want {%#x, %d, %q}",
					tc.n, tc.seed, k, runs[k].bound, runs[k].iters, runs[k].flags,
					tc.runs[k].bound, tc.runs[k].iters, tc.runs[k].flags)
			}
		}
		if warmPi != tc.warmPi {
			t.Errorf("n=%d seed=%d: warm state digest %#x, want %#x", tc.n, tc.seed, warmPi, tc.warmPi)
		}
	}
}

// hkTrajectoryCases were recorded from the two-copy ascent this driver
// replaced. Runs are in hkPinOptions order, then the warm re-run. A zero
// maxCost selects hiddenRing(n, seed) instead of randSparse.
var hkTrajectoryCases = []struct {
	n       int
	maxCost int64
	excProb float64
	seed    int64
	runs    [len(hkPinOptions) + 1]hkPin
	warmPi  uint64
}{
	{3, 40, 0.5, 1, [5]hkPin{{0x402bd225b274cc10, 124, ""}, {0x402be401a6aa13e0, 60, ""}, {0x4024000000000000, 51, "S"}, {0x4024000000000000, 17, "T"}, {0x402be401a6aa13e0, 60, ""}}, 0xf5881c01eaa3edb1},
	{4, 7, 0.4, 2, [5]hkPin{{0x3ff0000000000000, 2, ""}, {0x3ff0000000000000, 2, ""}, {0x3ff0000000000000, 2, ""}, {0x3ff0000000000000, 2, ""}, {0x3ff0000000000000, 1, ""}}, 0xc669664f5f2bc125},
	{5, 100, 0.3, 3, [5]hkPin{{0x40715fca2d99f480, 140, ""}, {0x4070dd552e0a7e90, 60, ""}, {0x40715fee22074550, 252, "S"}, {0x4062fa96c38b91a0, 17, "T"}, {0x40715e22fc33c2c0, 60, ""}}, 0xdb76a66852c02a2d},
	{6, 1000, 0.5, 4, [5]hkPin{{0x4081793adf19a300, 148, ""}, {0x408187c5c8553580, 60, ""}, {0x406bc00000000000, 51, "S"}, {0x406bc00000000000, 17, "T"}, {0x408187c5c8553580, 60, ""}}, 0xfd56e1f09ff69181},
	{8, 300, 0.2, 5, [5]hkPin{{0x408a57f7c9403300, 164, ""}, {0x408a01fad5032080, 60, ""}, {0x408a57fffd0b6a00, 120, "S"}, {0x40896ada7a998380, 17, "T"}, {0x408a57a0bf2986c0, 60, ""}}, 0x64407cd06aba263b},
	{10, 60, 0.35, 6, [5]hkPin{{0x40651c46f1908680, 180, ""}, {0x4064d0ef05ec4280, 60, ""}, {0x402ce58469ee5000, 52, "S"}, {0x402ce58469ee5000, 17, "T"}, {0x4064d0ef05ec4280, 60, ""}}, 0xfcbdbedc65023b0f},
	{12, 7, 0.3, 7, [5]hkPin{{0x402bea71f770ae00, 196, ""}, {0x402be0d541d08200, 60, ""}, {0x4010000000000000, 51, "S"}, {0x4010000000000000, 17, "T"}, {0x402be830d42e4800, 60, ""}}, 0xcbf853da2ec01cce},
	{16, 500, 0.25, 8, [5]hkPin{{0x40a04e1f79004800, 228, ""}, {0x40a04e2e0b415400, 60, ""}, {0x40a04e45ecb75800, 400, ""}, {0x4093e04585a4b800, 17, "T"}, {0x40a04e2e0b415400, 60, ""}}, 0x4dd185f05c619f03},
	{20, 120, 0.2, 9, [5]hkPin{{0x40860e7977c4c200, 260, ""}, {0x40861788a7100200, 60, ""}, {0x406444edd50f0000, 53, "S"}, {0x406444edd50f0000, 17, "T"}, {0x40861788a7100200, 60, ""}}, 0xe0bda282c8a3c346},
	{24, 2000, 0.15, 10, [5]hkPin{{0x40c3bb2ca8dc2400, 292, ""}, {0x40c3b83faf23e000, 60, ""}, {0x40940c0000000000, 51, "S"}, {0x40940c0000000000, 17, "T"}, {0x40c3b83faf23e000, 60, ""}}, 0xf69ce9bcec0cb008},
	{31, 40, 0.3, 11, [5]hkPin{{0x40660ecc94705000, 348, ""}, {0x40657804a1f62000, 60, ""}, {0x404551fe2d8d4000, 52, "S"}, {0x404551fe2d8d4000, 17, "T"}, {0x40657804a1f62000, 60, ""}}, 0x57afb68ec8174c6c},
	{40, 400, 0.2, 12, [5]hkPin{{0x409fc0c7a7104000, 420, ""}, {0x409fb67a86e68000, 60, ""}, {0x4088292f4f588000, 55, "S"}, {0x4088292f4f588000, 17, "T"}, {0x409fb67a86e68000, 60, ""}}, 0x5c3f6aa760c53508},
	{48, 100000, 0.1, 13, [5]hkPin{{0x412d497655e18000, 484, ""}, {0x412cd1da30c76000, 60, ""}, {0x4117b2c8b4664000, 55, "S"}, {0x4117b2c8b4664000, 17, "T"}, {0x412cd1da30c76000, 60, ""}}, 0x81fcc50e063a8bc2},
	{60, 500, 0.15, 14, [5]hkPin{{0x40add1efcabcc000, 580, ""}, {0x40ad98939ec3c000, 60, ""}, {0x409b3071ac750000, 53, "S"}, {0x409b3071ac750000, 17, "T"}, {0x40ad9bb4b74c8000, 60, ""}}, 0x9bf719e63c76ea14},
	{64, 7, 0.4, 15, [5]hkPin{{0x0, 612, ""}, {0x0, 60, ""}, {0x0, 400, ""}, {0x0, 17, "T"}, {0x0, 60, ""}}, 0x51d88627df287325},
	{80, 1000, 0.1, 16, [5]hkPin{{0x40c35aa1fdbb8000, 740, ""}, {0x40c2dc35ed364000, 60, ""}, {0x409c6a2e4a880000, 58, "S"}, {0x409c6a2e4a880000, 17, "T"}, {0x40c2dc35ed364000, 60, ""}}, 0x28e0c991c784c4c5},
	{96, 250, 0.08, 17, [5]hkPin{{0x40a8905861870000, 868, ""}, {0x40a6db9148e68000, 60, ""}, {0x407bc56c1b440000, 60, "S"}, {0x407bc56c1b440000, 17, "T"}, {0x40a6db9148e68000, 60, ""}}, 0xea2c5d4fe4794d24},
	{100, 3000, 0.05, 18, [5]hkPin{{0x40eb8d97a1ff0000, 900, ""}, {0x40e6c8e19a8c8000, 60, ""}, {0x40c69195c2a00000, 69, "S"}, {0x40bfb26c2fc80000, 17, "T"}, {0x40e6c8e19a8c8000, 60, ""}}, 0x702c0c214d47e58c},
	{110, 50, 0.2, 19, [5]hkPin{{0x4072e6290a780000, 980, ""}, {0x4072cf77797b0000, 60, ""}, {0x4057000000000000, 51, "S"}, {0x4057000000000000, 17, "T"}, {0x4072cf77797b0000, 60, ""}}, 0xc6a737cae5396de8},
	{120, 800, 0.12, 20, [5]hkPin{{0x40bd7419b26e0000, 1000, ""}, {0x40bbab5f141c0000, 60, ""}, {0x40aa1b453b2c0000, 59, "S"}, {0x40aa1b453b2c0000, 17, "T"}, {0x40bbab5f141c0000, 60, ""}}, 0xf659f31047724f92},
	{127, 400, 0.1, 21, [5]hkPin{{0x40b22b2ef64a0000, 1000, ""}, {0x40b0f478a3850000, 60, ""}, {0x4094da72e3940000, 63, "S"}, {0x4094da72e3940000, 17, "T"}, {0x40b0f478a3850000, 60, ""}}, 0x613c56fd600681fc},
	{128, 10, 0.3, 22, [5]hkPin{{0x3fe81aad88000000, 1000, ""}, {0x0, 60, ""}, {0x3fe761d878000000, 400, ""}, {0x0, 17, "T"}, {0x0, 60, ""}}, 0x28c31cf8df2ec325},
	{129, 500, 0.15, 23, [5]hkPin{{0x40b27dab01b40000, 1000, ""}, {0x40b1b27c95480000, 60, ""}, {0x409725169c080000, 56, "S"}, {0x409725169c080000, 17, "T"}, {0x40b1b27c95480000, 60, ""}}, 0x86fb6467947c591a},
	{130, 2000, 0.06, 24, [5]hkPin{{0x40e27aaa67d00000, 1000, ""}, {0x40dea5fafa2c0000, 60, ""}, {0x40c363e032640000, 61, "S"}, {0x40c363e032640000, 17, "T"}, {0x40dea5fafa2c0000, 60, ""}}, 0xa86bbfbec9688730},
	{9, 0, 0, 0, [5]hkPin{{0x40583ffffffffe00, 46, "C"}, {0x40583ffffffffe00, 12, "C"}, {0x4055400000000000, 51, "S"}, {0x4055400000000000, 17, "T"}, {0x40583ffffffffe00, 1, "C"}}, 0x86c6d11f280e21ba},
	{20, 0, 0, 2, [5]hkPin{{0x40655ffffffff000, 227, "C"}, {0x40655ffffffff000, 56, "C"}, {0x4057400000000000, 51, "S"}, {0x4057400000000000, 17, "T"}, {0x40655ffffffff000, 1, "C"}}, 0x1604a3241002f7c3},
	{40, 0, 0, 4, [5]hkPin{{0x407657afb1bb0000, 420, ""}, {0x40763009a5390000, 60, ""}, {0x4068600000000000, 51, "S"}, {0x4068600000000000, 17, "T"}, {0x407642da18578000, 60, ""}}, 0x92055416e32ae72e},
}
