package tsp

import "context"

// SolvePatching is the classic assignment-patching heuristic for the
// DTSP (Karp 1979): solve the assignment problem (a minimum-cost cycle
// cover), then repeatedly patch pairs of cycles together, each time
// choosing the merge with the smallest cost increase. Patching two
// cycles replaces arcs (i, sigma(i)) and (j, sigma(j)) from different
// cycles with (i, sigma(j)) and (j, sigma(i)).
//
// The paper's appendix explains why this family is the wrong tool for
// branch alignment: it excels exactly when the AP bound is close to the
// tour optimum (random matrices), and "a majority of the instances
// arising in the branch alignment problem do not have this property".
// The implementation exists to reproduce that comparison.
//
// Both phases are O(n^3) in the worst case, so ctx is polled once per
// assignment row and once per patch; a cancelled ctx returns ctx.Err()
// and no tour, and a nil ctx never cancels.
func SolvePatching(ctx context.Context, m *SparseMatrix) (Tour, Cost, error) {
	n := m.Len()
	if n == 1 {
		return Tour{0}, 0, nil
	}
	sigma, err := AssignmentSolve(ctx, m)
	if err != nil {
		return nil, 0, err
	}
	// Decompose into cycles; cycleID[i] identifies the cycle of city i.
	cycleID := make([]int, n)
	for i := range cycleID {
		cycleID[i] = -1
	}
	numCycles := 0
	for i := 0; i < n; i++ {
		if cycleID[i] != -1 {
			continue
		}
		for j := i; cycleID[j] == -1; j = sigma[j] {
			cycleID[j] = numCycles
		}
		numCycles++
	}
	// Greedy patching: merge the globally cheapest pair of cycles until
	// one remains.
	for numCycles > 1 {
		if ctx != nil && ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		bestDelta := Cost(1) << 62
		bestI, bestJ := -1, -1
		for i := 0; i < n; i++ {
			si := sigma[i]
			for j := 0; j < n; j++ {
				if cycleID[i] == cycleID[j] {
					continue
				}
				sj := sigma[j]
				delta := m.At(i, sj) + m.At(j, si) - m.At(i, si) - m.At(j, sj)
				if delta < bestDelta {
					bestDelta = delta
					bestI, bestJ = i, j
				}
			}
		}
		// Swap successors and relabel the absorbed cycle.
		si, sj := sigma[bestI], sigma[bestJ]
		sigma[bestI], sigma[bestJ] = sj, si
		from, to := cycleID[bestJ], cycleID[bestI]
		for k := 0; k < n; k++ {
			if cycleID[k] == from {
				cycleID[k] = to
			}
		}
		numCycles--
	}
	tour := make(Tour, 0, n)
	for c := 0; len(tour) < n; c = sigma[c] {
		tour = append(tour, c)
	}
	return tour, CycleCost(m, tour), nil
}
