// Package tsp implements the Traveling Salesman Problem machinery used by
// the branch-alignment algorithm of Young, Johnson, Karger and Smith
// ("Near-optimal Intraprocedural Branch Alignment", PLDI 1997).
//
// The package provides:
//
//   - asymmetric cost matrices behind the Costs interface: SparseMatrix,
//     the form the branch-alignment reduction builds, and the dense
//     Matrix, which Solve and SolveExact use for small instances and
//     tests use as an oracle,
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
// large-but-finite costs (see Matrix.Forbid) so that arithmetic never
// overflows for realistic instance sizes.
package tsp

import "fmt"

// Cost is the unit of edge cost. For branch alignment a Cost is a number
// of pipeline penalty cycles.
type Cost = int64

// Matrix is a dense, possibly asymmetric cost matrix over n cities.
// Matrix values are row-major: cost of the directed edge i->j is stored at
// index i*n+j. The diagonal is ignored by all algorithms in this package.
type Matrix struct {
	n int
	c []Cost
}

// NewMatrix returns an n-city matrix with all costs zero.
func NewMatrix(n int) *Matrix {
	if n < 1 {
		panic(fmt.Sprintf("tsp: NewMatrix(%d): need at least one city", n))
	}
	return &Matrix{n: n, c: make([]Cost, n*n)}
}

// Len returns the number of cities.
func (m *Matrix) Len() int { return m.n }

// At returns the cost of the directed edge i->j.
func (m *Matrix) At(i, j int) Cost { return m.c[i*m.n+j] }

// Set assigns the cost of the directed edge i->j.
func (m *Matrix) Set(i, j int, c Cost) { m.c[i*m.n+j] = c }

// Forbid returns a cost strictly larger than the cost of any tour that
// avoids forbidden edges: one plus the sum of all positive entries. Using
// it for "must not use" edges keeps every optimal (and every locally
// optimal) tour away from them whenever a feasible tour exists, without
// risking overflow the way a fixed huge constant would.
func (m *Matrix) Forbid() Cost {
	var sum Cost
	for _, v := range m.c {
		if v > 0 {
			sum += v
		}
	}
	return sum + 1
}

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
func CycleCost(m Costs, t Tour) Cost {
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
