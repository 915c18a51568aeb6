package core

import (
	"context"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/opt"
	"branchalign/internal/pipe"
)

// CacheAwareRow compares plain TSP alignment with TSP alignment under
// cache-aware edge weights (machine.CacheAware), both evaluated with the
// plain model and the full pipeline+cache simulator. This is the
// extension the paper's conclusion proposes.
type CacheAwareRow struct {
	Bench, DataSet string
	// PlainCP / AwareCP: control penalties of both layouts under the
	// *plain* model (the aware layout may concede a few penalty cycles).
	PlainCP, AwareCP Cost
	// PlainCycles / AwareCycles: simulated execution times.
	PlainCycles, AwareCycles Cost
	// PlainMisses / AwareMisses: I-cache misses.
	PlainMisses, AwareMisses int64
}

// ExtCacheAware aligns every benchmark twice — with the plain model and
// with a cache-aware surcharge of extra cycles per taken transfer — and
// simulates both.
func (s *Suite) ExtCacheAware(extra Cost) ([]CacheAwareRow, error) {
	awareModel := machine.CacheAware(s.Model, extra)
	var rows []CacheAwareRow
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
			plainL := align.Run(context.Background(), align.NewTSP(s.Seed), mod, prof, s.Model, align.RunOptions{}).Layout
			awareL := align.Run(context.Background(), align.NewTSP(s.Seed), mod, prof, awareModel, align.RunOptions{}).Layout
			plainSim, err := s.SimulateCycles(b, ds, mod, plainL)
			if err != nil {
				return nil, err
			}
			awareSim, err := s.SimulateCycles(b, ds, mod, awareL)
			if err != nil {
				return nil, err
			}
			rows = append(rows, CacheAwareRow{
				Bench:       b.Abbr,
				DataSet:     ds.Name,
				PlainCP:     layout.ModulePenalty(mod, plainL, prof, s.Model),
				AwareCP:     layout.ModulePenalty(mod, awareL, prof, s.Model),
				PlainCycles: plainSim.Cycles,
				AwareCycles: awareSim.Cycles,
				PlainMisses: plainSim.CacheMisses,
				AwareMisses: awareSim.CacheMisses,
			})
		}
	}
	return rows, nil
}

// ProcOrderRow compares module-order function placement against
// Pettis-Hansen procedure ordering (layout.OrderFunctions) for the TSP
// block layout — the interprocedural extension of the paper's future
// work.
type ProcOrderRow struct {
	Bench, DataSet           string
	PlainCycles, OrderCycles Cost
	PlainMisses, OrderMisses int64
}

// ExtProcOrder measures the effect of procedure ordering on simulated
// execution time.
func (s *Suite) ExtProcOrder() ([]ProcOrderRow, error) {
	var rows []ProcOrderRow
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
			tr, err := s.TraceOf(b, ds)
			if err != nil {
				return nil, err
			}
			cfg := pipe.Config{Model: s.Model, Cache: s.Cache}
			plain := pipe.Replay(tr, mod, layouts["tsp"], cfg)
			cfg.FuncOrder = layout.OrderFunctions(mod, prof)
			ordered := pipe.Replay(tr, mod, layouts["tsp"], cfg)
			rows = append(rows, ProcOrderRow{
				Bench:       b.Abbr,
				DataSet:     ds.Name,
				PlainCycles: plain.Cycles,
				OrderCycles: ordered.Cycles,
				PlainMisses: plain.CacheMisses,
				OrderMisses: ordered.CacheMisses,
			})
		}
	}
	return rows, nil
}

// OptimizeRow compares alignment benefit on raw lowered CFGs against
// CFGs pre-cleaned by the optimizer (internal/opt): a production
// compiler would have removed trivial jumps before code placement, so
// this ablation asks how much of the alignment win is "real" vs cleanup
// the front end left on the table.
type OptimizeRow struct {
	Bench, DataSet string
	// Block counts before/after optimization (whole module).
	RawBlocks, OptBlocks int
	// Normalized TSP control penalty (vs each variant's own original
	// layout).
	RawTSPCP, OptTSPCP float64
	// Absolute original-layout penalties of both variants.
	RawOrigCP, OptOrigCP Cost
}

// ExtOptimize runs the optimizer ablation. It recompiles each benchmark
// (the suite's cached modules stay untouched) and reprofiles the
// optimized variant, since optimization renumbers blocks.
func (s *Suite) ExtOptimize() ([]OptimizeRow, error) {
	var rows []OptimizeRow
	for _, b := range s.benchmarks {
		rawMod, err := b.Compile()
		if err != nil {
			return nil, err
		}
		optMod, err := b.Compile()
		if err != nil {
			return nil, err
		}
		opt.Module(optMod)
		countBlocks := func(m *ir.Module) int {
			n := 0
			for _, f := range m.Funcs {
				n += len(f.Blocks)
			}
			return n
		}
		measure := func(m *ir.Module, ds *bench.DataSet) (float64, Cost, error) {
			prof := interp.NewProfile(m)
			if _, err := interp.Run(m, ds.Make(), interp.Options{Profile: prof, MaxSteps: s.MaxSteps}); err != nil {
				return 0, 0, err
			}
			orig := layout.ModulePenalty(m, layout.Identity(m, prof, s.Model), prof, s.Model)
			tspCP := align.Run(context.Background(), align.NewTSP(s.Seed), m, prof, s.Model, align.RunOptions{}).Penalty
			norm := 1.0
			if orig > 0 {
				norm = float64(tspCP) / float64(orig)
			}
			return norm, orig, nil
		}
		for i := range b.DataSets {
			ds := &b.DataSets[i]
			row := OptimizeRow{
				Bench:     b.Abbr,
				DataSet:   ds.Name,
				RawBlocks: countBlocks(rawMod),
				OptBlocks: countBlocks(optMod),
			}
			var err error
			if row.RawTSPCP, row.RawOrigCP, err = measure(rawMod, ds); err != nil {
				return nil, err
			}
			if row.OptTSPCP, row.OptOrigCP, err = measure(optMod, ds); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// UnionRow compares cross-trained layouts against layouts trained on the
// union of both data sets' profiles, evaluated on each testing input.
// The paper stresses that "it is very important to find good training
// inputs"; merging profiles is the standard practical answer, and this
// experiment measures how much of the self-trained benefit it recovers.
type UnionRow struct {
	Bench, TestSet string
	// Normalized control penalties on the testing profile (original = 1).
	SelfCP, CrossCP, UnionCP float64
}

// ExtUnionTraining runs the union-profile training experiment with the
// TSP aligner.
func (s *Suite) ExtUnionTraining() ([]UnionRow, error) {
	var rows []UnionRow
	for _, b := range s.benchmarks {
		mod, err := s.Module(b)
		if err != nil {
			return nil, err
		}
		// Build the union profile once per benchmark.
		union := interp.NewProfile(mod)
		for i := range b.DataSets {
			p, _, err := s.ProfileOf(b, &b.DataSets[i])
			if err != nil {
				return nil, err
			}
			if err := union.Merge(p); err != nil {
				return nil, err
			}
		}
		unionLayout := align.Run(context.Background(), align.NewTSP(s.Seed), mod, union, s.Model, align.RunOptions{}).Layout
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
			norm := func(l *layout.Layout) float64 {
				if origCP == 0 {
					return 1
				}
				return float64(layout.ModulePenalty(mod, l, testProf, s.Model)) / float64(origCP)
			}
			rows = append(rows, UnionRow{
				Bench:   b.Abbr,
				TestSet: test.Name,
				SelfCP:  norm(selfLayouts["tsp"]),
				CrossCP: norm(crossLayouts["tsp"]),
				UnionCP: norm(unionLayout),
			})
		}
	}
	return rows, nil
}

// PredictorRow compares static prediction against simulated two-bit
// dynamic prediction for the same layouts (the paper's footnote-6
// trace-driven predictor study, with aliasing).
type PredictorRow struct {
	Bench, DataSet string
	// Cycles and conditional mispredicts under the original and TSP
	// layouts, for static and dynamic prediction.
	StaticOrigCycles, StaticTSPCycles Cost
	DynOrigCycles, DynTSPCycles       Cost
	StaticTSPMispred, DynTSPMispred   int64
}

// ExtPredictor runs the predictor comparison.
func (s *Suite) ExtPredictor(predCfg pipe.PredictorConfig) ([]PredictorRow, error) {
	predCfg.Kind = pipe.PredictTwoBit
	var rows []PredictorRow
	for _, b := range s.benchmarks {
		mod, err := s.Module(b)
		if err != nil {
			return nil, err
		}
		for i := range b.DataSets {
			ds := &b.DataSets[i]
			layouts, err := s.LayoutsOf(context.Background(), b, ds)
			if err != nil {
				return nil, err
			}
			tr, err := s.TraceOf(b, ds)
			if err != nil {
				return nil, err
			}
			static := pipe.Config{Model: s.Model, Cache: s.Cache}
			dyn := static
			dyn.Predictor = predCfg
			so := pipe.Replay(tr, mod, layouts["original"], static)
			st := pipe.Replay(tr, mod, layouts["tsp"], static)
			do := pipe.Replay(tr, mod, layouts["original"], dyn)
			dt := pipe.Replay(tr, mod, layouts["tsp"], dyn)
			rows = append(rows, PredictorRow{
				Bench:            b.Abbr,
				DataSet:          ds.Name,
				StaticOrigCycles: so.Cycles,
				StaticTSPCycles:  st.Cycles,
				DynOrigCycles:    do.Cycles,
				DynTSPCycles:     dt.Cycles,
				StaticTSPMispred: st.CondMispredicts,
				DynTSPMispred:    dt.CondMispredicts,
			})
		}
	}
	return rows, nil
}
