package core

import (
	"context"
	"time"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/tsp"
)

// Table1Row reproduces one line of the paper's Table 1: benchmark and
// data set inventory with static branch sites touched and dynamic branch
// instructions executed.
type Table1Row struct {
	Bench, DataSet  string
	Description     string
	SitesStatic     int
	SitesTouched    int
	ExecutedBranch  int64
	InstructionsRun int64
}

// Table1 builds the benchmark inventory.
func (s *Suite) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, b := range s.benchmarks {
		mod, err := s.Module(b)
		if err != nil {
			return nil, err
		}
		for i := range b.DataSets {
			ds := &b.DataSets[i]
			prof, res, err := s.ProfileOf(b, ds)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table1Row{
				Bench:           b.Abbr,
				DataSet:         ds.Name,
				Description:     b.Description,
				SitesStatic:     interp.BranchSitesStatic(mod),
				SitesTouched:    prof.BranchSitesTouched(mod),
				ExecutedBranch:  res.DynBranches(),
				InstructionsRun: res.Steps,
			})
		}
	}
	return rows, nil
}

// Table2Row reproduces one line of the paper's Table 2: per-phase
// compilation and alignment times (milliseconds). The paper reports the
// worst data set per benchmark; we report the reference data set.
type Table2Row struct {
	Bench, DataSet string
	CompileMS      float64 // "Intermediate Representation"
	ProfileMS      float64 // "Instrumented Program" + "Profiling Run Time"
	GreedyMS       float64 // "Greedy Program"
	MatrixMS       float64 // "TSP Matrix"
	SolveMS        float64 // "TSP Solver"
	FinalizeMS     float64 // "TSP Program"
}

// Table2 measures phase times. Timings are wall-clock and thus
// machine-dependent; their *ratios* (solver dominating, matrix cheap)
// are the reproducible shape.
func (s *Suite) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range s.benchmarks {
		row := Table2Row{Bench: b.Abbr, DataSet: b.DataSets[0].Name}
		t0 := time.Now()
		mod, err := b.Compile()
		if err != nil {
			return nil, err
		}
		row.CompileMS = msSince(t0)

		ds := &b.DataSets[0]
		t0 = time.Now()
		prof := interp.NewProfile(mod)
		if _, err := interp.Run(mod, ds.Make(), interp.Options{Profile: prof, MaxSteps: s.MaxSteps}); err != nil {
			return nil, err
		}
		row.ProfileMS = msSince(t0)

		t0 = time.Now()
		align.Run(context.Background(), align.PettisHansen{}, mod, prof, s.Model, align.RunOptions{})
		row.GreedyMS = msSince(t0)

		t0 = time.Now()
		mats := make([]*tsp.SparseMatrix, len(mod.Funcs))
		for fi, f := range mod.Funcs {
			mats[fi] = align.BuildSparseMatrix(f, prof.Funcs[fi], s.Model, nil)
		}
		row.MatrixMS = msSince(t0)

		// The same solves align.TSP runs: function fi at seed Seed+fi.
		t0 = time.Now()
		opts := tsp.SolveOptions{Seed: s.Seed}
		orders := make([][]int, len(mod.Funcs))
		for fi, f := range mod.Funcs {
			orders[fi] = align.SolveFunc(f, mats[fi], opts, int64(fi)).Order
		}
		row.SolveMS = msSince(t0)

		t0 = time.Now()
		l := &layout.Layout{}
		for fi, f := range mod.Funcs {
			l.Funcs = append(l.Funcs, layout.Finalize(f, prof.Funcs[fi], orders[fi], s.Model))
		}
		if err := l.Validate(mod); err != nil {
			return nil, err
		}
		row.FinalizeMS = msSince(t0)

		rows = append(rows, row)
	}
	return rows, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

// Table4Row reproduces one line of the paper's Table 4: original control
// penalties, the theoretical (Held-Karp) lower bound, and the original
// running time (simulated cycles standing in for seconds).
type Table4Row struct {
	Bench, DataSet string
	OriginalCP     Cost
	LowerBoundCP   Cost
	OriginalCycles Cost
}

// Table4 builds the original-layout baselines.
func (s *Suite) Table4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, b := range s.benchmarks {
		mod, err := s.Module(b)
		if err != nil {
			return nil, err
		}
		for i := range b.DataSets {
			ds := &b.DataSets[i]
			prof, _, err := s.ProfileOf(b, ds)
			if err != nil {
				return nil, err
			}
			orig := layout.Identity(mod, prof, s.Model)
			cp := layout.ModulePenalty(mod, orig, prof, s.Model)
			bound, err := s.BoundOf(b, ds)
			if err != nil {
				return nil, err
			}
			sim, err := s.SimulateCycles(b, ds, mod, orig)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table4Row{
				Bench:          b.Abbr,
				DataSet:        ds.Name,
				OriginalCP:     cp,
				LowerBoundCP:   bound,
				OriginalCycles: sim.Cycles,
			})
		}
	}
	return rows, nil
}

// Fig2Row reproduces one bar group of Figure 2: control penalties and
// execution times for greedy and TSP layouts, normalized against the
// original layout, with the normalized lower bound. Training and testing
// use the same data set.
type Fig2Row struct {
	Bench, DataSet string
	// Normalized control penalties (original = 1.0).
	GreedyCP, TSPCP, BoundCP float64
	// Normalized simulated execution times (original = 1.0).
	GreedyTime, TSPTime float64
	// Raw values for EXPERIMENTS.md.
	OrigCPRaw   Cost
	OrigCycles  Cost
	TSPCPRaw    Cost
	GreedyCPRaw Cost
}

// Fig2 runs the same-training-and-testing experiment.
func (s *Suite) Fig2() ([]Fig2Row, error) {
	var rows []Fig2Row
	for _, b := range s.benchmarks {
		mod, err := s.Module(b)
		if err != nil {
			return nil, err
		}
		for i := range b.DataSets {
			ds := &b.DataSets[i]
			prof, _, err := s.ProfileOf(b, ds)
			if err != nil {
				return nil, err
			}
			layouts, err := s.LayoutsOf(context.Background(), b, ds)
			if err != nil {
				return nil, err
			}
			origCP := layout.ModulePenalty(mod, layouts["original"], prof, s.Model)
			greedyCP := layout.ModulePenalty(mod, layouts["greedy"], prof, s.Model)
			tspCP := layout.ModulePenalty(mod, layouts["tsp"], prof, s.Model)
			bound, err := s.BoundOf(b, ds)
			if err != nil {
				return nil, err
			}

			origSim, err := s.SimulateCycles(b, ds, mod, layouts["original"])
			if err != nil {
				return nil, err
			}
			greedySim, err := s.SimulateCycles(b, ds, mod, layouts["greedy"])
			if err != nil {
				return nil, err
			}
			tspSim, err := s.SimulateCycles(b, ds, mod, layouts["tsp"])
			if err != nil {
				return nil, err
			}

			norm := func(v Cost) float64 {
				if origCP == 0 {
					return 1
				}
				return float64(v) / float64(origCP)
			}
			rows = append(rows, Fig2Row{
				Bench:       b.Abbr,
				DataSet:     ds.Name,
				GreedyCP:    norm(greedyCP),
				TSPCP:       norm(tspCP),
				BoundCP:     norm(bound),
				GreedyTime:  float64(greedySim.Cycles) / float64(origSim.Cycles),
				TSPTime:     float64(tspSim.Cycles) / float64(origSim.Cycles),
				OrigCPRaw:   origCP,
				OrigCycles:  origSim.Cycles,
				TSPCPRaw:    tspCP,
				GreedyCPRaw: greedyCP,
			})
		}
	}
	return rows, nil
}

// Fig3Row reproduces one bar group of Figure 3: self-trained vs
// cross-trained results for greedy and TSP on a given *testing* data set.
// Cross layouts are trained on the benchmark's other data set.
type Fig3Row struct {
	Bench, TestSet, TrainSet string
	// Normalized control penalties on the testing profile.
	GreedySelfCP, GreedyCrossCP, TSPSelfCP, TSPCrossCP float64
	// Normalized simulated execution times on the testing trace.
	GreedySelfTime, GreedyCrossTime, TSPSelfTime, TSPCrossTime float64
}

// Fig3 runs the cross-validation experiment.
func (s *Suite) Fig3() ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, b := range s.benchmarks {
		mod, err := s.Module(b)
		if err != nil {
			return nil, err
		}
		for i := range b.DataSets {
			test := &b.DataSets[i]
			train := &b.DataSets[(i+1)%len(b.DataSets)]
			testProf, _, err := s.ProfileOf(b, test)
			if err != nil {
				return nil, err
			}
			selfLayouts, err := s.LayoutsOf(context.Background(), b, test)
			if err != nil {
				return nil, err
			}
			crossLayouts, err := s.LayoutsOf(context.Background(), b, train)
			if err != nil {
				return nil, err
			}

			origCP := layout.ModulePenalty(mod, selfLayouts["original"], testProf, s.Model)
			normCP := func(l *layout.Layout) float64 {
				if origCP == 0 {
					return 1
				}
				return float64(layout.ModulePenalty(mod, l, testProf, s.Model)) / float64(origCP)
			}
			origSim, err := s.SimulateCycles(b, test, mod, selfLayouts["original"])
			if err != nil {
				return nil, err
			}
			normTime := func(l *layout.Layout) (float64, error) {
				sim, err := s.SimulateCycles(b, test, mod, l)
				if err != nil {
					return 0, err
				}
				return float64(sim.Cycles) / float64(origSim.Cycles), nil
			}
			row := Fig3Row{
				Bench: b.Abbr, TestSet: test.Name, TrainSet: train.Name,
				GreedySelfCP:  normCP(selfLayouts["greedy"]),
				GreedyCrossCP: normCP(crossLayouts["greedy"]),
				TSPSelfCP:     normCP(selfLayouts["tsp"]),
				TSPCrossCP:    normCP(crossLayouts["tsp"]),
			}
			if row.GreedySelfTime, err = normTime(selfLayouts["greedy"]); err != nil {
				return nil, err
			}
			if row.GreedyCrossTime, err = normTime(crossLayouts["greedy"]); err != nil {
				return nil, err
			}
			if row.TSPSelfTime, err = normTime(selfLayouts["tsp"]); err != nil {
				return nil, err
			}
			if row.TSPCrossTime, err = normTime(crossLayouts["tsp"]); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
