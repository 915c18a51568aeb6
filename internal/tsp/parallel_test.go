package tsp

// Schedule-independence tests for the parallel multi-start solver: the
// result of Solve must be a pure function of SolveOptions.Seed — never
// of Parallelism, GOMAXPROCS, or goroutine scheduling. Run with -race
// (scripts/ci.sh does, at GOMAXPROCS=2) so the same tests also prove
// the concurrent runs share no unsynchronized state.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"branchalign/internal/work"
)

// solveAt runs the paper protocol (local search forced, no exact-DP
// shortcut) at the given parallelism.
func solveAt(m *SparseMatrix, seed int64, par int, budget Budget) Result {
	opt := PaperSolveOptions(seed)
	opt.ExactThreshold = 0
	opt.PatchingStarts = 1
	opt.Parallelism = par
	opt.Budget = budget
	return Solve(m, opt)
}

// resultsEqual compares everything but wall-clock: tour, cost and all
// counters.
func resultsEqual(a, b Result) bool { return reflect.DeepEqual(a, b) }

// TestSolveParallelismBitIdentical pins the determinism contract on
// dense and sparse instances at parallelism 1, 2 and 8.
func TestSolveParallelismBitIdentical(t *testing.T) {
	for _, n := range []int{13, 30, 61} {
		for _, sparse := range []bool{false, true} {
			m := randMatrix(n, 1000, int64(n))
			name := "dense"
			if sparse {
				m = randSparse(n, 1000, 0.15, int64(n))
				name = "sparse"
			}
			seq := solveAt(m, 7, 1, Budget{})
			for _, par := range []int{2, 8} {
				got := solveAt(m, 7, par, Budget{})
				if !resultsEqual(seq, got) {
					t.Errorf("n=%d %s: Parallelism=%d diverged from sequential:\n seq: %+v\n got: %+v",
						n, name, par, seq, got)
				}
			}
		}
	}
}

// TestSolveParallelKickBudgetBitIdentical exercises the deterministic
// MaxKicks partition, including budgets that exhaust mid-run, exactly at
// run boundaries, exactly at the protocol total, and beyond it.
func TestSolveParallelKickBudgetBitIdentical(t *testing.T) {
	const n = 17
	m := randMatrix(n, 500, 3)
	opt := PaperSolveOptions(1)
	runs := int64(opt.GreedyStarts + opt.NNStarts + opt.IdentityStarts + 1) // +1 patching in solveAt
	iters := int64(2 * n)
	total := runs * iters
	budgets := []int64{1, 3, iters - 1, iters, iters + 1, 3*iters + 5, total - 1, total, total + 10}
	for _, k := range budgets {
		seq := solveAt(m, 11, 1, Budget{MaxKicks: k})
		wantTrunc := k < total
		if seq.Truncated != wantTrunc {
			t.Errorf("MaxKicks=%d: sequential Truncated=%v, want %v (exact-budget finishes are not truncated)",
				k, seq.Truncated, wantTrunc)
		}
		if seq.Kicks > k {
			t.Errorf("MaxKicks=%d: spent %d kicks", k, seq.Kicks)
		}
		for _, par := range []int{2, 8} {
			got := solveAt(m, 11, par, Budget{MaxKicks: k})
			if !resultsEqual(seq, got) {
				t.Errorf("MaxKicks=%d Parallelism=%d diverged:\n seq: %+v\n got: %+v", k, par, seq, got)
			}
		}
	}
}

// TestSolveParallelQuick is the property-test form of the contract:
// random instances (dense and sparse), random seeds, random kick
// budgets — parallel and sequential results are identical, always.
func TestSolveParallelQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	property := func(nSeed, solveSeed int64, sparse bool, budgetRaw int64) bool {
		rng := rand.New(rand.NewSource(nSeed))
		n := 13 + rng.Intn(20)
		m := randMatrix(n, 2000, nSeed)
		if sparse {
			m = randSparse(n, 2000, 0.2, nSeed)
		}
		// A third of the time, no budget; otherwise a budget drawn up to
		// slightly past the full protocol (11 runs x 2n kicks), so
		// exhausting and non-exhausting cases both occur.
		var budget Budget
		if budgetRaw%3 != 0 {
			budget.MaxKicks = 1 + budgetRaw%int64(23*n)
		}
		seq := solveAt(m, solveSeed, 1, budget)
		par := solveAt(m, solveSeed, 8, budget)
		if !resultsEqual(seq, par) {
			t.Logf("n=%d sparse=%v seed=%d budget=%+v\n seq: %+v\n par: %+v", n, sparse, solveSeed, budget, seq, par)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 12,
		Values: func(vs []reflect.Value, rng *rand.Rand) {
			vs[0] = reflect.ValueOf(rng.Int63())
			vs[1] = reflect.ValueOf(rng.Int63())
			vs[2] = reflect.ValueOf(rng.Intn(2) == 0)
			vs[3] = reflect.ValueOf(rng.Int63())
		},
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestSolveParallelOnSaturatedPool pins the nested-composition behavior:
// a solve whose pool is fully occupied (by the solves themselves) must
// still complete — degrading to in-caller execution — and still return
// the schedule-independent result.
func TestSolveParallelOnSaturatedPool(t *testing.T) {
	m := randMatrix(29, 1000, 5)
	want := solveAt(m, 9, 1, Budget{})
	pool := work.NewPool(2)
	results := make([]Result, 4)
	pool.Each(len(results), func(i int) {
		opt := PaperSolveOptions(9)
		opt.ExactThreshold = 0
		opt.PatchingStarts = 1
		opt.Parallelism = 8
		opt.Pool = pool
		results[i] = Solve(m, opt)
	})
	for i, got := range results {
		if !resultsEqual(want, got) {
			t.Errorf("solve %d on saturated pool diverged:\n want: %+v\n got: %+v", i, want, got)
		}
	}
}

// TestRunSeedStreamsDistinct sanity-checks the per-run seed derivation:
// distinct (run, kind) pairs yield distinct streams for the paper
// protocol's plan sizes.
func TestRunSeedStreamsDistinct(t *testing.T) {
	seen := map[int64][2]int{}
	for run := 0; run < 64; run++ {
		for _, kind := range []startKind{startGreedy, startNN, startIdentity, startPatching} {
			s := runSeed(1, run, kind)
			if prev, dup := seen[s]; dup {
				t.Fatalf("runSeed collision: (%d,%v) and (%d,%d) both map to %d", run, kind, prev[0], prev[1], s)
			}
			seen[s] = [2]int{run, int(kind)}
		}
	}
	if runSeed(1, 0, startGreedy) == runSeed(2, 0, startGreedy) {
		t.Fatal("runSeed ignores the solve seed")
	}
}

// TestRotateToNoAllocs pins the three-reversal rotation as
// allocation-free.
func TestRotateToNoAllocs(t *testing.T) {
	tour := make(Tour, 101)
	for i := range tour {
		tour[i] = (i + 37) % len(tour)
	}
	allocs := testing.AllocsPerRun(100, func() { tour.RotateTo(0) })
	if allocs != 0 {
		t.Fatalf("RotateTo allocates %.1f objects per call, want 0", allocs)
	}
	// And it must still rotate correctly after the in-place rewrite.
	tour.RotateTo(5)
	if tour[0] != 5 {
		t.Fatalf("RotateTo(5) left %d first", tour[0])
	}
	if !tour.Valid(len(tour)) {
		t.Fatal("RotateTo corrupted the permutation")
	}
}

// BenchmarkRotateTo demonstrates the 0 allocs/op of the in-place
// rotation on a large tour.
func BenchmarkRotateTo(b *testing.B) {
	tour := make(Tour, 4096)
	for i := range tour {
		tour[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tour.RotateTo(i % len(tour))
	}
}
