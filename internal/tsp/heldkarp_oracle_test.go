package tsp

import (
	"math"
	"math/rand"
	"testing"
)

// The dense Held-Karp oracle: Prim over an explicit symmetric matrix,
// Θ(n²) per 1-tree, driven by the production ascent. It checks the
// ascent on symmetric instances and the implicit sparse 1-tree against
// the materialized 2-city transformation (Sym.Matrix).

// oneTreeWorkspace holds the Prim scratch arrays for the dense oneTree,
// hoisted out of the per-iteration path so that subgradient ascent does
// not reallocate them on every iterate.
type oneTreeWorkspace struct {
	inTree []bool
	dist   []float64
	parent []int
}

func newOneTreeWorkspace(n int) *oneTreeWorkspace {
	return &oneTreeWorkspace{
		inTree: make([]bool, n),
		dist:   make([]float64, n),
		parent: make([]int, n),
	}
}

// oneTree computes the minimum-weight 1-tree under reduced costs
// c(i,j) + pi[i] + pi[j]: a minimum spanning tree over cities 1..n-1 plus
// the two cheapest edges incident to city 0. deg receives the degree of
// each city in the 1-tree. The returned weight is in reduced costs.
func oneTree(m *Matrix, pi []float64, deg []int, ws *oneTreeWorkspace) float64 {
	n := m.Len()
	for i := range deg {
		deg[i] = 0
	}
	red := func(i, j int) float64 {
		return float64(m.At(i, j)) + pi[i] + pi[j]
	}
	// Prim over cities 1..n-1.
	const unreached = math.MaxFloat64
	inTree, dist, parent := ws.inTree, ws.dist, ws.parent
	for i := 0; i < n; i++ {
		inTree[i] = false
		dist[i] = unreached
		parent[i] = -1
	}
	total := 0.0
	cur := 1
	inTree[cur] = true
	for count := 1; count < n-1; count++ {
		for j := 2; j < n; j++ {
			if inTree[j] {
				continue
			}
			if d := red(cur, j); d < dist[j] {
				dist[j] = d
				parent[j] = cur
			}
		}
		nxt, nd := -1, unreached
		for j := 2; j < n; j++ {
			if !inTree[j] && dist[j] < nd {
				nxt, nd = j, dist[j]
			}
		}
		if nxt < 0 {
			break
		}
		inTree[nxt] = true
		total += nd
		deg[nxt]++
		deg[parent[nxt]]++
		cur = nxt
	}
	// Two cheapest edges from city 0.
	best1, best2 := unreached, unreached
	arg1, arg2 := -1, -1
	for j := 1; j < n; j++ {
		d := red(0, j)
		switch {
		case d < best1:
			best2, arg2 = best1, arg1
			best1, arg1 = d, j
		case d < best2:
			best2, arg2 = d, j
		}
	}
	total += best1 + best2
	deg[0] += 2
	deg[arg1]++
	deg[arg2]++
	return total
}

// heldKarpSym bounds a symmetric instance with the dense 1-tree under
// the production ascent (no shift: the instance is relaxed as is), its
// steps scaled from a nearest-neighbor tour as in production. Negative
// bounds are legitimate here, since a materialized 2-city
// transformation carries negative locked edges.
func heldKarpSym(m *Matrix, opt HeldKarpOptions) BoundResult {
	n := m.Len()
	if n < 3 {
		return BoundResult{Bound: float64(cycleCost(m, IdentityTour(n))), Converged: true}
	}
	ub := cycleCost(m, NearestNeighbor(m.Sparse(), 0, nil))
	pi := make([]float64, n)
	deg := make([]int, n)
	ws := newOneTreeWorkspace(n)
	return ascend(nil, pi, deg, func() float64 { return oneTree(m, pi, deg, ws) }, opt, ub, 0)
}

// TestSparseOneTreeMatchesDenseOracle evaluates the implicit sparse
// 1-tree and the dense Prim over the materialized transformation at the
// same random integer potentials. With every exception below its row
// default no edge is capped, so the two minimum 1-trees weigh exactly
// the same (the trees themselves may differ on ties, and every partial
// sum is an integer, so summation order cannot matter).
func TestSparseOneTreeMatchesDenseOracle(t *testing.T) {
	for _, n := range []int{3, 8, 25, 140} {
		rng := rand.New(rand.NewSource(int64(n)))
		b := NewSparseBuilder(n)
		for i := 0; i < n; i++ {
			var cols []int
			var vals []Cost
			for j := 0; j < n; j++ {
				if j != i && rng.Float64() < 0.2 {
					cols = append(cols, j)
					vals = append(vals, Cost(rng.Int63n(300)))
				}
			}
			b.AddRow(300, cols, vals)
		}
		sp := b.Finish()
		m := Symmetrize(sp).Matrix()
		ot := newSparseOneTree(sp)
		deg := make([]int, ot.N)
		ws := newOneTreeWorkspace(ot.N)
		for trial := 0; trial < 5; trial++ {
			for i := range ot.pi {
				ot.pi[i] = float64(rng.Intn(200) - 100)
			}
			if sw, dw := ot.run(), oneTree(m, ot.pi, deg, ws); sw != dw {
				t.Fatalf("n=%d trial %d: sparse 1-tree weighs %v, dense oracle %v", n, trial, sw, dw)
			}
		}
		ot.release()
	}
}
