package core

import (
	"context"
	"sync"
	"testing"

	"branchalign/internal/interp"
	"branchalign/internal/layout"
)

// fastSuite restricts the suite to three benchmarks to keep test time
// moderate while still covering LZW, the cover minimizer and the VM.
func fastSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(1).WithBenchmarks("compress", "espresso", "xli")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTable1(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 benchmarks x 2 data sets
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.SitesTouched > r.SitesStatic {
			t.Errorf("%s.%s: touched %d > static %d", r.Bench, r.DataSet, r.SitesTouched, r.SitesStatic)
		}
		if r.ExecutedBranch <= 0 || r.InstructionsRun <= 0 {
			t.Errorf("%s.%s: empty workload", r.Bench, r.DataSet)
		}
		if r.SitesTouched == 0 {
			t.Errorf("%s.%s: no branch sites touched", r.Bench, r.DataSet)
		}
	}
}

func TestTable2PhaseShape(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.ProfileMS <= 0 || r.SolveMS <= 0 {
			t.Errorf("%s: non-positive phase times: %+v", r.Bench, r)
		}
		// The reproducible shape from the paper's Table 2: profiling and
		// solving dominate the cheap finalization step.
		if r.FinalizeMS > r.ProfileMS+r.SolveMS {
			t.Errorf("%s: finalize (%v ms) should be cheap relative to profile+solve (%v ms)",
				r.Bench, r.FinalizeMS, r.ProfileMS+r.SolveMS)
		}
	}
}

func TestTable4(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.LowerBoundCP > r.OriginalCP {
			t.Errorf("%s.%s: lower bound %d exceeds original penalty %d", r.Bench, r.DataSet, r.LowerBoundCP, r.OriginalCP)
		}
		if r.OriginalCycles <= 0 {
			t.Errorf("%s.%s: no simulated cycles", r.Bench, r.DataSet)
		}
		if r.OriginalCP <= 0 {
			t.Errorf("%s.%s: zero original penalty", r.Bench, r.DataSet)
		}
	}
}

func TestFig2HeadlineShape(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	var greedySum, tspSum, boundSum float64
	for _, r := range rows {
		// Bound <= TSP <= greedy <= original (1.0) on the training set.
		if r.TSPCP > r.GreedyCP+1e-9 {
			t.Errorf("%s.%s: TSP CP %.4f above greedy %.4f", r.Bench, r.DataSet, r.TSPCP, r.GreedyCP)
		}
		if r.GreedyCP > 1+1e-9 {
			t.Errorf("%s.%s: greedy CP %.4f above original", r.Bench, r.DataSet, r.GreedyCP)
		}
		if r.BoundCP > r.TSPCP+1e-9 {
			t.Errorf("%s.%s: bound %.4f above TSP %.4f", r.Bench, r.DataSet, r.BoundCP, r.TSPCP)
		}
		if r.GreedyTime > 1.02 || r.TSPTime > 1.02 {
			t.Errorf("%s.%s: aligned layouts slowed execution: greedy %.4f tsp %.4f",
				r.Bench, r.DataSet, r.GreedyTime, r.TSPTime)
		}
		greedySum += r.GreedyCP
		tspSum += r.TSPCP
		boundSum += r.BoundCP
	}
	n := float64(len(rows))
	// The paper's headline: a large fraction of control penalty is
	// removable and TSP essentially meets the bound. Exact percentages
	// depend on the workloads; require the qualitative shape.
	if tspSum/n > 0.9 {
		t.Errorf("TSP removes too little penalty on average: %.3f", tspSum/n)
	}
	if tspSum/n > boundSum/n+0.05 {
		t.Errorf("TSP mean %.4f far from bound mean %.4f", tspSum/n, boundSum/n)
	}
	_ = greedySum
}

func TestFig3CrossValidationShape(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	var selfT, crossT float64
	for _, r := range rows {
		if r.TrainSet == r.TestSet {
			t.Errorf("%s: cross row trains and tests on the same set", r.Bench)
		}
		// Self-trained must not be beaten by cross-trained on the
		// training metric in aggregate; per-row we allow noise, so only
		// accumulate.
		selfT += r.TSPSelfCP
		crossT += r.TSPCrossCP
		for name, v := range map[string]float64{
			"GreedySelfCP": r.GreedySelfCP, "GreedyCrossCP": r.GreedyCrossCP,
			"TSPSelfCP": r.TSPSelfCP, "TSPCrossCP": r.TSPCrossCP,
			"GreedySelfTime": r.GreedySelfTime, "TSPCrossTime": r.TSPCrossTime,
		} {
			if v <= 0 {
				t.Errorf("%s.%s: %s = %v", r.Bench, r.TestSet, name, v)
			}
		}
	}
	if crossT < selfT-1e-9 {
		t.Errorf("cross-trained TSP (%0.4f) beats self-trained (%0.4f) in aggregate; suspicious", crossT, selfT)
	}
}

func TestAppendixStats(t *testing.T) {
	s := fastSuite(t)
	st, err := s.Appendix()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Instances) < 10 {
		t.Fatalf("only %d instances", len(st.Instances))
	}
	for _, inst := range st.Instances {
		if inst.APBound > inst.TourCost {
			t.Errorf("%s/%s: AP %d above tour %d", inst.Bench, inst.Func, inst.APBound, inst.TourCost)
		}
		if inst.HKBound > inst.TourCost {
			t.Errorf("%s/%s: HK %d above tour %d", inst.Bench, inst.Func, inst.HKBound, inst.TourCost)
		}
	}
	if st.HKGapMeanPct > 5 {
		t.Errorf("mean HK gap %.2f%% too large (paper: < 0.3%%)", st.HKGapMeanPct)
	}
	if st.AllRunsTied == 0 && st.SolvedExactly == 0 {
		t.Error("no instance solved consistently; solver unstable")
	}
}

func TestAppendixSynthetic(t *testing.T) {
	s := fastSuite(t)
	st, err := s.AppendixSynthetic(8, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Instances) != 8 {
		t.Fatalf("got %d synthetic instances", len(st.Instances))
	}
	for _, inst := range st.Instances {
		if inst.Cities != 30 {
			t.Errorf("instance has %d cities, want 30", inst.Cities)
		}
		if inst.APBound > inst.TourCost || inst.HKBound > inst.TourCost {
			t.Errorf("bound above tour on synthetic instance: %+v", inst)
		}
	}
}

func TestSuiteCaches(t *testing.T) {
	s := fastSuite(t)
	b := s.benchmarks[0]
	ds := &b.DataSets[0]
	p1, _, err := s.ProfileOf(b, ds)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := s.ProfileOf(b, ds)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("profile not cached")
	}
	l1, err := s.LayoutsOf(context.Background(), b, ds)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := s.LayoutsOf(context.Background(), b, ds)
	if err != nil {
		t.Fatal(err)
	}
	if l1["tsp"] != l2["tsp"] {
		t.Error("layouts not cached")
	}
	tr1, err := s.TraceOf(b, ds)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := s.TraceOf(b, ds)
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Error("trace not cached")
	}
}

func TestWithBenchmarksRejectsUnknown(t *testing.T) {
	if _, err := NewSuite(1).WithBenchmarks("nonesuch"); err == nil {
		t.Error("expected error")
	}
}

// TestSuiteConcurrentUse pins that one Suite is safe for concurrent
// callers: parallel ProfileOf/LayoutsOf/Module/TraceOf over overlapping
// keys must neither race (run under -race in CI) nor compute a cached
// value twice — every goroutine must observe the same pointers.
func TestSuiteConcurrentUse(t *testing.T) {
	s := fastSuite(t)
	benches := s.benchmarks

	type got struct {
		prof    *interp.Profile
		layouts map[string]*layout.Layout
	}
	const workers = 8
	results := make([]map[string]got, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = map[string]got{}
			for _, b := range benches {
				ds := &b.DataSets[0]
				prof, _, err := s.ProfileOf(b, ds)
				if err != nil {
					t.Errorf("ProfileOf(%s): %v", b.Name, err)
					return
				}
				layouts, err := s.LayoutsOf(context.Background(), b, ds)
				if err != nil {
					t.Errorf("LayoutsOf(%s): %v", b.Name, err)
					return
				}
				if _, err := s.Module(b); err != nil {
					t.Errorf("Module(%s): %v", b.Name, err)
					return
				}
				results[w][b.Name] = got{prof: prof, layouts: layouts}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w := 1; w < workers; w++ {
		for _, b := range benches {
			if results[w][b.Name].prof != results[0][b.Name].prof {
				t.Errorf("%s: worker %d computed a second profile", b.Name, w)
			}
			if results[w][b.Name].layouts["tsp"] != results[0][b.Name].layouts["tsp"] {
				t.Errorf("%s: worker %d computed a second layout set", b.Name, w)
			}
		}
	}
}
