// Package tsp implements the Traveling Salesman Problem machinery used by
// the branch-alignment algorithm of Young, Johnson, Karger and Smith
// ("Near-optimal Intraprocedural Branch Alignment", PLDI 1997).
//
// The package provides:
//
//   - SparseMatrix, the one cost representation: a per-row default plus
//     a few exception columns, the O(V+E) form the branch-alignment
//     reduction builds, read by every kernel below (the tests keep a
//     dense matrix as the oracle it is checked against),
//   - tour-construction heuristics (nearest neighbor and greedy edge
//     matching, both with optional randomization),
//   - a reversal-free directed 3-opt local search, which is exactly the
//     move set that symmetric 3-opt induces on the standard 2-city
//     DTSP-to-STSP transformation when the intra-city edges are locked,
//   - the iterated local search protocol from the paper (double-bridge
//     kicks, multiple randomized starts),
//   - the Held-Karp lower bound computed on the symmetrized instance via
//     Lagrangian (1-tree) subgradient ascent (HeldKarpBound),
//   - the assignment-problem lower bound (Hungarian algorithm), and
//   - exact solvers (dynamic programming) for small instances, used both
//     in tests and to solve small procedures outright.
//
// All costs are int64 penalty cycles. Infeasible edges are expressed with
// large-but-finite costs (see SparseMatrix.Forbid) so that arithmetic never
// overflows for realistic instance sizes.
package tsp

import "fmt"

// Cost is the unit of edge cost. For branch alignment a Cost is a number
// of pipeline penalty cycles.
type Cost = int64

// Tour is a cyclic permutation of the cities 0..n-1. Tour[k] is the k-th
// city visited; the tour closes from the last city back to the first.
type Tour []int

// Clone returns a copy of the tour.
func (t Tour) Clone() Tour {
	u := make(Tour, len(t))
	copy(u, t)
	return u
}

// CycleCost returns the cost of traversing t as a directed cycle under m:
// the sum of m.At(t[k], t[k+1]) plus the closing edge.
func CycleCost(m *SparseMatrix, t Tour) Cost {
	if len(t) == 0 {
		return 0
	}
	var sum Cost
	for k := 0; k+1 < len(t); k++ {
		sum += m.At(t[k], t[k+1])
	}
	sum += m.At(t[len(t)-1], t[0])
	return sum
}

// RotateTo rotates the tour in place so that city c is first. It panics if
// c does not occur in the tour.
func (t Tour) RotateTo(c int) {
	at := -1
	for i, v := range t {
		if v == c {
			at = i
			break
		}
	}
	if at < 0 {
		panic(fmt.Sprintf("tsp: RotateTo(%d): city not in tour", c))
	}
	if at == 0 {
		return
	}
	// Three-reversal rotation: reversing the two halves and then the
	// whole slice lands t[at:] in front of t[:at] without a scratch
	// allocation (the solver rotates every layout it emits).
	t[:at].reverse()
	t[at:].reverse()
	t.reverse()
}

// reverse flips the tour in place.
func (t Tour) reverse() {
	for i, j := 0, len(t)-1; i < j; i, j = i+1, j-1 {
		t[i], t[j] = t[j], t[i]
	}
}
