package tsp

import "testing"

// TestPaperProtocolQualityStatistics runs the paper's 10-start iterated
// 3-opt protocol against exact optima on a population of 11-city random
// asymmetric instances and requires near-optimal aggregate quality: mean
// gap under 1% and at least two thirds of instances solved to optimality
// (the paper's tours "typically come within 0.3% of the value of the
// optimal solution" on its instance population).
func TestPaperProtocolQualityStatistics(t *testing.T) {
	const trials = 15
	optimalHits := 0
	var gapSum float64
	for seed := int64(0); seed < trials; seed++ {
		m := randMatrix(11, 1000, seed*131+7)
		_, opt := SolveExact(m)
		// Below ExactMaxCities Solve would take the exact DP; the
		// population measures the local search it runs past it.
		res := localSearch(m, SolveOptions{Seed: seed}, nil)
		if res.Cost < opt {
			t.Fatalf("seed %d: heuristic %d below optimum %d", seed, res.Cost, opt)
		}
		if res.Cost == opt {
			optimalHits++
		}
		if opt > 0 {
			gapSum += 100 * float64(res.Cost-opt) / float64(opt)
		}
	}
	meanGap := gapSum / trials
	if meanGap > 1.0 {
		t.Errorf("mean optimality gap %.3f%% exceeds 1%%", meanGap)
	}
	if optimalHits*3 < trials*2 {
		t.Errorf("only %d/%d instances solved optimally", optimalHits, trials)
	}
	t.Logf("iterated 3-opt: %d/%d optimal, mean gap %.4f%%", optimalHits, trials, meanGap)
}
