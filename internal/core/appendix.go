package core

import (
	"sort"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/tsp"
)

// InstanceStats holds the per-procedure DTSP diagnostics the paper's
// appendix analyzes.
type InstanceStats struct {
	Bench, Func string
	Cities      int
	// TourCost is the best tour the solver found (provably optimal when
	// Exact).
	TourCost Cost
	Exact    bool
	// APBound and HKBound are the assignment-problem and Held-Karp lower
	// bounds for this instance.
	APBound Cost
	HKBound Cost
	// RunsAtBest / Runs reports how many of the iterated-3-Opt runs tied
	// the best cost (the appendix: "on 128 of the 179 procedures in
	// esp.tl it was found on all 10 runs").
	RunsAtBest, Runs int
}

// AppendixStats aggregates InstanceStats the way the paper's appendix
// reports them.
type AppendixStats struct {
	Instances []InstanceStats
	// APTight counts instances whose AP bound equals the best tour.
	APTight int
	// APGapMedianPct is the median relative gap (tour-AP)/AP, in percent,
	// over the instances where AP is *not* tight (paper: median 30%).
	APGapMedianPct float64
	// APGapOver10x counts instances where the tour exceeds 10x the AP
	// bound (paper: 15 instances).
	APGapOver10x int
	// HKGapMeanPct and HKGapWorstPct are the mean and worst relative gaps
	// (tour-HK)/tour in percent (paper: mean < 0.3%, worst 14%).
	HKGapMeanPct  float64
	HKGapWorstPct float64
	// AllRunsTied counts instances where every local-search run found the
	// best cost; SolvedExactly counts the DP-solved ones.
	AllRunsTied   int
	SolvedExactly int
}

// Appendix reproduces the paper's appendix analysis over every procedure
// of every active benchmark (the paper uses the procedures of esp.tl;
// with our smaller programs, the whole suite gives a comparable
// instance population). Trivial one- and two-block procedures are
// excluded, as tours are forced there.
func (s *Suite) Appendix() (*AppendixStats, error) {
	out := &AppendixStats{}
	for _, b := range s.benchmarks {
		mod, err := s.Module(b)
		if err != nil {
			return nil, err
		}
		ds := &b.DataSets[0]
		prof, _, err := s.ProfileOf(b, ds)
		if err != nil {
			return nil, err
		}
		for fi, f := range mod.Funcs {
			if len(f.Blocks) < 3 {
				continue
			}
			out.Instances = append(out.Instances, s.instance(b.Abbr, f, prof.Funcs[fi], int64(fi)))
		}
	}
	finalizeAppendix(out)
	return out, nil
}

// AppendixSynthetic augments the instance population with synthetic CFGs
// (the suite's procedures are fewer than esp.tl's 179; synthetic
// instances restore a comparable sample size for the gap statistics).
func (s *Suite) AppendixSynthetic(count, blocks int) (*AppendixStats, error) {
	out := &AppendixStats{}
	for i := 0; i < count; i++ {
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, s.Seed+int64(i)*977))
		if err != nil {
			return nil, err
		}
		out.Instances = append(out.Instances, s.instance("synth", mod.Funcs[0], prof.Funcs[0], int64(i)))
	}
	finalizeAppendix(out)
	return out, nil
}

// instance solves one procedure's DTSP with the paper's protocol (solver
// seed s.Seed+seedOffset) and bounds it both ways. The solve, the
// Held-Karp bound and the AP bound share one matrix.
func (s *Suite) instance(benchName string, f *ir.Func, fp *interp.FuncProfile, seedOffset int64) InstanceStats {
	mat := align.BuildSparseMatrix(f, fp, s.Model, s.Obs)
	opts, hk := tsp.SolveOptions{Seed: s.Seed, Obs: s.Obs}, s.HKOpts
	hk.Obs = s.Obs
	res := align.SolveFunc(f, mat, opts, seedOffset)
	var hkb align.FuncBoundResult
	if res.Exact {
		hkb = align.ExactBound(f, res.Cost, s.Obs)
	} else {
		hkb = align.FuncHeldKarpBound(f, mat, hk)
	}
	return InstanceStats{
		Bench:      benchName,
		Func:       f.Name,
		Cities:     res.Cities,
		TourCost:   res.Cost,
		Exact:      res.Exact,
		Runs:       res.Runs,
		RunsAtBest: res.RunsAtBest,
		HKBound:    hkb.Bound,
		APBound:    tsp.AssignmentBound(mat),
	}
}

// FinalizeAppendix recomputes the aggregate fields of an AppendixStats
// from its Instances, for callers that merge instance populations.
func FinalizeAppendix(out *AppendixStats) {
	out.APTight, out.APGapOver10x, out.AllRunsTied, out.SolvedExactly = 0, 0, 0, 0
	out.APGapMedianPct, out.HKGapMeanPct, out.HKGapWorstPct = 0, 0, 0
	finalizeAppendix(out)
}

func finalizeAppendix(out *AppendixStats) {
	var apGaps []float64
	var hkGapSum float64
	hkCount := 0
	for _, inst := range out.Instances {
		if inst.Exact {
			out.SolvedExactly++
		}
		if inst.RunsAtBest == inst.Runs {
			out.AllRunsTied++
		}
		switch {
		case inst.APBound == inst.TourCost:
			out.APTight++
		case inst.APBound > 0:
			gap := 100 * float64(inst.TourCost-inst.APBound) / float64(inst.APBound)
			apGaps = append(apGaps, gap)
			if inst.TourCost > 10*inst.APBound {
				out.APGapOver10x++
			}
		default: // APBound == 0 < TourCost: infinite relative gap
			out.APGapOver10x++
		}
		if inst.TourCost > 0 {
			gap := 100 * float64(inst.TourCost-inst.HKBound) / float64(inst.TourCost)
			if gap < 0 {
				gap = 0
			}
			hkGapSum += gap
			hkCount++
			if gap > out.HKGapWorstPct {
				out.HKGapWorstPct = gap
			}
		}
	}
	if len(apGaps) > 0 {
		sort.Float64s(apGaps)
		out.APGapMedianPct = apGaps[len(apGaps)/2]
	}
	if hkCount > 0 {
		out.HKGapMeanPct = hkGapSum / float64(hkCount)
	}
}
