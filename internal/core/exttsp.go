package core

import (
	"context"

	"branchalign/internal/layout"
)

// ExtTSPRow is one (benchmark, data set, aligner) cell of the
// aligner-family judgment: the control penalty the DTSP objective
// minimizes, the ExtTSP locality score the chain merger maximizes, and
// the simulated execution time that arbitrates between them.
type ExtTSPRow struct {
	Bench, DataSet, Aligner string
	// CP and CPNorm: control penalty and its ratio to the original
	// layout's (lower is better).
	CP     Cost
	CPNorm float64
	// Score is the layout's ExtTSP objective value (higher is better).
	Score float64
	// Cycles and CyclesNorm: simulated pipeline+I-cache execution time
	// and its ratio to the original layout's.
	Cycles     Cost
	CyclesNorm float64
	// Misses: simulated I-cache misses.
	Misses int64
}

// ExtTSPAligners is the family ExtTSPMatrix judges: every registered
// aligner, ordered weakest heuristic to strongest solver with the
// original order as the normalization baseline in front.
var ExtTSPAligners = []string{"original", "greedy", "calder-grunwald", "ap-patch", "tsp", "exttsp"}

// ExtTSPMatrix runs the full aligner family over every benchmark and
// data set, reporting control penalty, ExtTSP score and simulated
// cycles per cell. This is the experiment that answers the headline
// question of the ExtTSP line (arXiv:1809.04676): the chain merger
// concedes control-penalty cycles to the DTSP solver by construction —
// does the I-cache locality it buys instead win on simulated execution
// time?
func (s *Suite) ExtTSPMatrix() ([]ExtTSPRow, error) {
	var rows []ExtTSPRow
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
			var origCP, origCycles Cost
			for _, name := range ExtTSPAligners {
				l, err := s.LayoutFor(context.Background(), b, ds, name)
				if err != nil {
					return nil, err
				}
				sim, err := s.SimulateCycles(b, ds, mod, l)
				if err != nil {
					return nil, err
				}
				cp := layout.ModulePenalty(mod, l, prof, s.Model)
				if name == "original" {
					origCP, origCycles = cp, sim.Cycles
				}
				rows = append(rows, ExtTSPRow{
					Bench:      b.Abbr,
					DataSet:    ds.Name,
					Aligner:    name,
					CP:         cp,
					CPNorm:     norm(cp, origCP),
					Score:      layout.ModuleExtTSPScore(mod, l, prof),
					Cycles:     sim.Cycles,
					CyclesNorm: norm(sim.Cycles, origCycles),
					Misses:     sim.CacheMisses,
				})
			}
		}
	}
	return rows, nil
}

// norm is the ratio to the original-layout baseline, 1.0 when the
// baseline is zero (degenerate cells normalize to parity).
func norm(v, base Cost) float64 {
	if base == 0 {
		return 1
	}
	return float64(v) / float64(base)
}

// ExtTSPSummary aggregates a matrix into one line per aligner: mean
// normalized control penalty and mean normalized simulated time over
// all (benchmark, data set) cells. The tsp-vs-exttsp pair of lines is
// the experiment's verdict.
type ExtTSPSummary struct {
	Aligner        string
	MeanCPNorm     float64
	MeanCyclesNorm float64
	// CyclesWins counts cells where this aligner simulated strictly
	// faster than the tsp aligner on the same (benchmark, data set).
	CyclesWins int
	Cells      int
}

// SummarizeExtTSP reduces ExtTSPMatrix rows per aligner, preserving
// ExtTSPAligners order.
func SummarizeExtTSP(rows []ExtTSPRow) []ExtTSPSummary {
	tspCycles := map[string]Cost{}
	for _, r := range rows {
		if r.Aligner == "tsp" {
			tspCycles[r.Bench+"."+r.DataSet] = r.Cycles
		}
	}
	var out []ExtTSPSummary
	for _, name := range ExtTSPAligners {
		var sum ExtTSPSummary
		sum.Aligner = name
		for _, r := range rows {
			if r.Aligner != name {
				continue
			}
			sum.Cells++
			sum.MeanCPNorm += r.CPNorm
			sum.MeanCyclesNorm += r.CyclesNorm
			if base, ok := tspCycles[r.Bench+"."+r.DataSet]; ok && r.Cycles < base {
				sum.CyclesWins++
			}
		}
		if sum.Cells > 0 {
			sum.MeanCPNorm /= float64(sum.Cells)
			sum.MeanCyclesNorm /= float64(sum.Cells)
		}
		out = append(out, sum)
	}
	return out
}
