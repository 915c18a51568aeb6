package align

import (
	"context"
	"math/rand"
	"testing"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/testutil"
	"branchalign/internal/tsp"
	"branchalign/internal/work"
)

func compileBranchy(t *testing.T) (*ir.Module, *interp.Profile) {
	t.Helper()
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource, testutil.BranchyInput(500, 11))
	if err != nil {
		t.Fatal(err)
	}
	return mod, prof
}

// TestMatrixWalkCostEqualsLayoutPenalty is the central claim of Section
// 2.2: "if we lay out the blocks in the order the walk visits them, the
// total number of penalty cycles caused by the layout is equal to the
// cost of the walk".
func TestMatrixWalkCostEqualsLayoutPenalty(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	rng := rand.New(rand.NewSource(4))
	for fi, f := range mod.Funcs {
		fp := prof.Funcs[fi]
		mat := BuildSparseMatrix(f, fp, m, nil)
		for trial := 0; trial < 30; trial++ {
			tour := tsp.IdentityTour(len(f.Blocks))
			rest := tour[1:]
			rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
			walkCost := tsp.CycleCost(mat, tour)
			fl := layout.Finalize(f, fp, []int(tour), m)
			pen := layout.Penalty(f, fl, fp, m)
			if walkCost != pen {
				t.Fatalf("func %s trial %d: DTSP cycle cost %d != layout penalty %d (tour %v)",
					f.Name, trial, walkCost, pen, tour)
			}
		}
	}
}

func TestAlignersProduceValidLayouts(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	aligners := []Aligner{Original{}, PettisHansen{}, &CalderGrunwald{}, TSP{}}
	for _, a := range aligners {
		l := Run(context.Background(), a, mod, prof, m, RunOptions{Seed: 1}).Layout
		if err := l.Validate(mod); err != nil {
			t.Errorf("%s: invalid layout: %v", a.Name(), err)
		}
	}
}

func TestAlignerImprovementOrdering(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	orig := Run(context.Background(), Original{}, mod, prof, m, RunOptions{}).Penalty
	greedy := Run(context.Background(), PettisHansen{}, mod, prof, m, RunOptions{}).Penalty
	cg := Run(context.Background(), &CalderGrunwald{}, mod, prof, m, RunOptions{}).Penalty
	tspPen := Run(context.Background(), TSP{}, mod, prof, m, RunOptions{Seed: 1}).Penalty
	if greedy > orig {
		t.Errorf("greedy penalty %d worse than original %d", greedy, orig)
	}
	if tspPen > greedy {
		t.Errorf("TSP penalty %d worse than greedy %d", tspPen, greedy)
	}
	if tspPen > cg {
		t.Errorf("TSP penalty %d worse than Calder-Grunwald %d", tspPen, cg)
	}
	if orig == 0 {
		t.Fatal("original penalty is zero; workload too trivial to exercise alignment")
	}
	// The benchmark is branchy enough that alignment must recover a
	// nontrivial fraction of the penalty.
	if float64(tspPen) > 0.95*float64(orig) {
		t.Errorf("TSP removed <5%% of penalty (%d -> %d); alignment ineffective", orig, tspPen)
	}
}

// TestTSPMatchesExactOnSmallFunctions: every function small enough is
// solved exactly, so its aligned training penalty must equal the DTSP
// optimum.
func TestTSPMatchesExactOnSmallFunctions(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	a := TSP{}
	l := Run(context.Background(), a, mod, prof, m, RunOptions{Seed: 1}).Layout
	for fi, f := range mod.Funcs {
		n := len(f.Blocks)
		if n < 2 || n > 12 {
			continue
		}
		fp := prof.Funcs[fi]
		mat := BuildSparseMatrix(f, fp, m, nil)
		_, opt := tsp.SolveExact(mat)
		pen := layout.Penalty(f, l.Funcs[fi], fp, m)
		if pen != opt {
			t.Errorf("func %s (%d blocks): aligned penalty %d != exact optimum %d", f.Name, n, pen, opt)
		}
	}
}

// TestBoundsSandwich: AP <= HK <= optimal penalty of any aligner, per
// function and in total.
func TestBoundsSandwich(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	hk := Run(context.Background(), Original{}, mod, prof, m, RunOptions{Bound: &tsp.HeldKarpOptions{Iterations: 1000}}).Bound
	var ap layout.Cost
	for fi, f := range mod.Funcs {
		if len(f.Blocks) > 1 {
			ap += tsp.AssignmentBound(BuildSparseMatrix(f, prof.Funcs[fi], m, nil))
		}
	}
	tspPen := Run(context.Background(), TSP{}, mod, prof, m, RunOptions{Seed: 1}).Penalty
	origPen := Run(context.Background(), Original{}, mod, prof, m, RunOptions{}).Penalty
	if ap > tspPen {
		t.Errorf("AP bound %d exceeds TSP penalty %d", ap, tspPen)
	}
	if hk > tspPen {
		t.Errorf("HK bound %d exceeds TSP penalty %d", hk, tspPen)
	}
	if hk > origPen {
		t.Errorf("HK bound %d exceeds original penalty %d", hk, origPen)
	}
	if hk < ap {
		// Not a strict theorem per-function aggregate (HK is computed per
		// function, as is AP), but HK should dominate AP on these
		// instances overall; warn if badly inverted.
		t.Logf("note: HK bound %d below AP bound %d", hk, ap)
	}
	if hk <= 0 {
		t.Errorf("HK bound %d should be positive for a branchy workload", hk)
	}
	// The TSP aligner should land close to the lower bound, as in the
	// paper ("within 0.3% of a provable optimum" there; we allow 5%).
	if float64(tspPen) > 1.05*float64(hk)+16 {
		t.Errorf("TSP penalty %d far above HK bound %d", tspPen, hk)
	}
}

func TestGreedyHandlesZeroProfile(t *testing.T) {
	// Aligning with an empty profile (program never run) must not crash
	// and must produce valid layouts.
	mod, err := testutil.Compile(testutil.BranchySource)
	if err != nil {
		t.Fatal(err)
	}
	prof := interp.NewProfile(mod)
	m := machine.Alpha21164()
	for _, a := range []Aligner{PettisHansen{}, &CalderGrunwald{}, TSP{}} {
		l := Run(context.Background(), a, mod, prof, m, RunOptions{Seed: 1}).Layout
		if err := l.Validate(mod); err != nil {
			t.Errorf("%s on zero profile: %v", a.Name(), err)
		}
		if pen := layout.ModulePenalty(mod, l, prof, m); pen != 0 {
			t.Errorf("%s: zero profile must have zero penalty, got %d", a.Name(), pen)
		}
	}
}

func TestGreedyPlacesHotPathContiguously(t *testing.T) {
	// A hot if-branch taken 99% of the time: greedy must make the hot
	// successor the fall-through.
	src := `
func main(input[], n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) {
		if (input[i] == 0) { s = s + 100; } else { s = s + 1; }
	}
	return s;
}
`
	data := make([]int64, 200)
	data[7] = 1 // one rare iteration
	mod, prof, _, err := testutil.CompileAndProfile(src,
		[]interp.Input{interp.ArrayInput(data), interp.ScalarInput(200)})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Alpha21164()
	l := Run(context.Background(), PettisHansen{}, mod, prof, m, RunOptions{}).Layout
	f := mod.Funcs[mod.EntryFunc]
	fp := prof.Funcs[mod.EntryFunc]
	fl := l.Funcs[mod.EntryFunc]
	succ := fl.LayoutSuccessors(f)
	for b, blk := range f.Blocks {
		if blk.Term.Kind != ir.TermCondBr {
			continue
		}
		hotIdx, hotCount := testutil.HottestSuccessor(prof.Funcs[mod.EntryFunc], b)
		if hotCount < 100 {
			continue
		}
		if succ[b] != blk.Term.Succs[hotIdx] {
			pen := layout.Penalty(f, fl, fp, m)
			t.Errorf("hot successor of b%d not placed as fall-through (layout succ b%d, hot b%d); penalty %d",
				b, succ[b], blk.Term.Succs[hotIdx], pen)
		}
	}
}

func TestSolveFuncDiagnostics(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	for fi, f := range mod.Funcs {
		res := SolveFunc(f, BuildSparseMatrix(f, prof.Funcs[fi], m, nil), tsp.SolveOptions{Seed: 1}, int64(fi))
		if res.Cities != len(f.Blocks) {
			t.Errorf("func %d: Cities = %d, want %d", fi, res.Cities, len(f.Blocks))
		}
		if len(res.Order) != len(f.Blocks) || res.Order[0] != 0 {
			t.Errorf("func %d: bad order %v", fi, res.Order)
		}
		if res.Runs < 1 || res.RunsAtBest < 1 || res.RunsAtBest > res.Runs {
			t.Errorf("func %d: inconsistent run stats %+v", fi, res)
		}
		if len(f.Blocks) <= tsp.ExactMaxCities && !res.Exact {
			t.Errorf("func %d: %d-block function should be solved exactly", fi, len(f.Blocks))
		}
	}
}

func TestDeterministicAlignment(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	for _, mk := range []func() Aligner{
		func() Aligner { return PettisHansen{} },
		func() Aligner { return &CalderGrunwald{} },
		func() Aligner { return TSP{} },
	} {
		a1, a2 := mk(), mk()
		l1 := Run(context.Background(), a1, mod, prof, m, RunOptions{Seed: 7}).Layout
		l2 := Run(context.Background(), a2, mod, prof, m, RunOptions{Seed: 7}).Layout
		for fi := range l1.Funcs {
			for k := range l1.Funcs[fi].Order {
				if l1.Funcs[fi].Order[k] != l2.Funcs[fi].Order[k] {
					t.Fatalf("%s: nondeterministic order in func %d", a1.Name(), fi)
				}
			}
		}
	}
}

func TestAlignerNames(t *testing.T) {
	names := map[string]bool{}
	for _, a := range []Aligner{Original{}, PettisHansen{}, &CalderGrunwald{}, TSP{}} {
		n := a.Name()
		if n == "" || names[n] {
			t.Errorf("aligner name %q empty or duplicated", n)
		}
		names[n] = true
	}
}

// TestDeepPipeIncreasesAlignmentBenefit is the machine-model ablation:
// with larger mispredict penalties, the absolute cycles recovered by
// alignment grow.
func TestDeepPipeIncreasesAlignmentBenefit(t *testing.T) {
	mod, prof := compileBranchy(t)
	benefit := func(m machine.Model) layout.Cost {
		orig := Run(context.Background(), Original{}, mod, prof, m, RunOptions{}).Penalty
		tspPen := Run(context.Background(), TSP{}, mod, prof, m, RunOptions{Seed: 1}).Penalty
		return orig - tspPen
	}
	shallow := benefit(machine.ShallowPipe())
	deep := benefit(machine.DeepPipe())
	if deep <= shallow {
		t.Errorf("deep-pipe benefit %d should exceed shallow-pipe benefit %d", deep, shallow)
	}
}

// TestParallelAlignmentIdentical: fanning functions out over several
// workers is bit-identical to one worker (each function has its own
// seeded stream), and so is per-run parallelism inside each solve —
// alone and stacked on top of the per-function fan-out, where both
// layers contend for the same pool.
func TestParallelAlignmentIdentical(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	l1 := Run(context.Background(), TSP{}, mod, prof, m, RunOptions{Seed: 5, Pool: work.NewPool(1)}).Layout
	for name, c := range map[string]struct {
		workers, runs int
	}{
		"funcs": {4, 0},
		"runs":  {1, 4},
		"both":  {4, 4},
	} {
		l2 := Run(context.Background(), TSP{}, mod, prof, m, RunOptions{Seed: 5, Parallelism: c.runs, Pool: work.NewPool(c.workers)}).Layout
		for fi := range l1.Funcs {
			for k := range l1.Funcs[fi].Order {
				if l1.Funcs[fi].Order[k] != l2.Funcs[fi].Order[k] {
					t.Fatalf("%s: parallel alignment diverged in func %d", name, fi)
				}
			}
		}
	}
}
