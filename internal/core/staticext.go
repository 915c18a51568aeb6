package core

import (
	"context"

	"branchalign/internal/align"
	"branchalign/internal/layout"
	"branchalign/internal/staticprof"
)

// StaticProfileRow compares three block layouts of one benchmark/data
// pair, all evaluated against the *measured* profile (the ground truth
// for what the program actually does): the compiler order, the TSP
// layout trained on the measured profile, and the TSP layout trained on
// the statically *estimated* profile (internal/staticprof — no
// execution at all). The question is how much of the profile-guided
// benefit survives when no profile is available.
type StaticProfileRow struct {
	Bench, DataSet string
	// OrigCP / MeasuredCP / StaticCP: control penalty of the compiler
	// order, the measured-profile TSP layout, and the static-profile TSP
	// layout — all charged under the measured profile.
	OrigCP, MeasuredCP, StaticCP Cost
	// Recovered is the fraction of the measured-profile improvement the
	// static-profile layout retains:
	// (OrigCP-StaticCP) / (OrigCP-MeasuredCP). 1.0 means the estimate
	// was as good as running the program; 0 means no better than the
	// compiler order; negative means actively worse.
	Recovered float64
	// Simulated execution cycles of the three layouts (pipeline +
	// I-cache, replaying the measured trace).
	OrigCycles, MeasuredCycles, StaticCycles Cost
}

// ExtStaticProfile runs the static-estimation experiment over the
// suite. The static layout is computed once per benchmark (it depends
// only on the module) and evaluated against each data set's measured
// profile.
func (s *Suite) ExtStaticProfile() ([]StaticProfileRow, error) {
	var rows []StaticProfileRow
	for _, b := range s.benchmarks {
		mod, err := s.Module(b)
		if err != nil {
			return nil, err
		}
		est, _ := staticprof.Estimate(mod)
		staticL := align.Run(context.Background(), align.NewTSP(s.Seed), mod, est, s.Model, align.RunOptions{}).Layout
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
			origL := layout.Identity(mod, prof, s.Model)
			origCP := layout.ModulePenalty(mod, origL, prof, s.Model)
			measuredCP := layout.ModulePenalty(mod, layouts["tsp"], prof, s.Model)
			staticCP := layout.ModulePenalty(mod, staticL, prof, s.Model)

			origSim, err := s.SimulateCycles(b, ds, mod, origL)
			if err != nil {
				return nil, err
			}
			measuredSim, err := s.SimulateCycles(b, ds, mod, layouts["tsp"])
			if err != nil {
				return nil, err
			}
			staticSim, err := s.SimulateCycles(b, ds, mod, staticL)
			if err != nil {
				return nil, err
			}

			rows = append(rows, StaticProfileRow{
				Bench:          b.Abbr,
				DataSet:        ds.Name,
				OrigCP:         origCP,
				MeasuredCP:     measuredCP,
				StaticCP:       staticCP,
				Recovered:      recoveredFraction(origCP, measuredCP, staticCP),
				OrigCycles:     origSim.Cycles,
				MeasuredCycles: measuredSim.Cycles,
				StaticCycles:   staticSim.Cycles,
			})
		}
	}
	return rows, nil
}

// recoveredFraction is the per-row recovery ratio, with the degenerate
// case (measured TSP found nothing to remove) mapped to full recovery.
func recoveredFraction(orig, measured, static Cost) float64 {
	if orig <= measured {
		return 1
	}
	return float64(orig-static) / float64(orig-measured)
}

// StaticRecoveredAggregate computes the suite-level recovery fraction —
// total penalty removed by static-profile TSP over total removed by
// measured-profile TSP. Summing before dividing weights each benchmark
// by its absolute penalty, so a tiny benchmark cannot swing the
// aggregate the way a mean of ratios would.
func StaticRecoveredAggregate(rows []StaticProfileRow) float64 {
	var removedStatic, removedMeasured Cost
	for _, r := range rows {
		removedStatic += r.OrigCP - r.StaticCP
		removedMeasured += r.OrigCP - r.MeasuredCP
	}
	if removedMeasured <= 0 {
		return 1
	}
	return float64(removedStatic) / float64(removedMeasured)
}
