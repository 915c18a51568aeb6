package tsp

import (
	"fmt"
	"math/rand"
)

// This file holds the dense reference implementations the production
// kernels, which read only *SparseMatrix, are checked against: a dense
// Matrix, the Costs view the oracles accept, the conversions between the
// two representations and the dense nearest-neighbor and neighbor-list
// scans.

// Costs is the read-only cost view the test oracles take: *Matrix and
// *SparseMatrix both implement it.
type Costs interface {
	// Len returns the number of cities.
	Len() int
	// At returns the cost of the directed edge i->j. The diagonal reads
	// as 0.
	At(i, j int) Cost
	// Forbid returns one plus the sum of all positive off-diagonal
	// entries.
	Forbid() Cost
}

// Matrix is a dense, possibly asymmetric cost matrix over n cities.
// Matrix values are row-major: cost of the directed edge i->j is stored at
// index i*n+j.
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

// Forbid is SparseMatrix.Forbid computed by a full scan: one plus the sum
// of all positive off-diagonal entries.
func (m *Matrix) Forbid() Cost {
	var sum Cost
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if v := m.c[i*m.n+j]; i != j && v > 0 {
				sum += v
			}
		}
	}
	return sum + 1
}

// Sparse returns the canonical sparse form of m (see Sparsify): in every
// row the default is the most frequent off-diagonal value, smallest on
// ties, and every other entry is an exception.
func (m *Matrix) Sparse() *SparseMatrix {
	n := m.n
	b := NewSparseBuilder(n)
	if n == 1 {
		b.AddRow(0, nil, nil)
		return b.Finish()
	}
	var elect electScratch
	vals := make([]Cost, 0, n-1)
	for i := 0; i < n; i++ {
		vals = vals[:0]
		for j := 0; j < n; j++ {
			if j != i {
				vals = append(vals, m.At(i, j))
			}
		}
		def := elect.mostFrequent(vals[0], 0, vals)
		var ec []int
		var ev []Cost
		for j := 0; j < n; j++ {
			if v := m.At(i, j); j != i && v != def {
				ec = append(ec, j)
				ev = append(ev, v)
			}
		}
		b.AddRow(def, ec, ev)
	}
	return b.Finish()
}

// Dense materializes s as a dense Matrix.
func (s *SparseMatrix) Dense() *Matrix {
	m := NewMatrix(s.n)
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			if i != j {
				m.Set(i, j, s.At(i, j))
			}
		}
	}
	return m
}

// explicit re-encodes s with every off-diagonal entry stored as an
// exception: the same instance, whose rows are all wide from four
// cities up, so every off-diagonal read takes the out-of-line search.
func explicit(s *SparseMatrix) *SparseMatrix {
	n := s.n
	b := NewSparseBuilder(n)
	cols := make([]int, 0, n)
	vals := make([]Cost, 0, n)
	for i := 0; i < n; i++ {
		cols, vals = cols[:0], vals[:0]
		for j := 0; j < n; j++ {
			if j != i {
				cols = append(cols, j)
				vals = append(vals, s.At(i, j))
			}
		}
		b.AddRow(-1, cols, vals)
	}
	return b.Finish()
}

// nearestNeighborDense is NearestNeighbor by a full scan of every row.
func nearestNeighborDense(m Costs, start int, rng *rand.Rand) Tour {
	n := m.Len()
	visited := make([]bool, n)
	tour := make(Tour, 0, n)
	cur := start
	visited[cur] = true
	tour = append(tour, cur)
	type cand struct {
		city int
		cost Cost
	}
	for len(tour) < n {
		var best [3]cand
		nbest := 0
		for j := 0; j < n; j++ {
			if visited[j] {
				continue
			}
			c := cand{j, m.At(cur, j)}
			// Insertion sort into the best-3 buffer.
			k := nbest
			if k > len(best)-1 {
				k = len(best) - 1
				if c.cost >= best[k].cost {
					continue
				}
			}
			for k > 0 && best[k-1].cost > c.cost {
				best[k] = best[k-1]
				k--
			}
			best[k] = c
			if nbest < len(best) {
				nbest++
			}
		}
		pick := 0
		if rng != nil && nbest > 1 {
			pick = rng.Intn(nbest)
		}
		cur = best[pick].city
		visited[cur] = true
		tour = append(tour, cur)
	}
	return tour
}

// buildNeighborsDense is BuildNeighbors by a full scan of every row and
// column: each row selects its k cheapest columns through a bounded
// (cost, index)-keyed max-heap.
func buildNeighborsDense(m Costs, k int, forbid Cost) *Neighbors {
	n := m.Len()
	if k <= 0 {
		k = DefaultNeighborCount
	}
	if k > n-1 {
		k = n - 1
	}
	nb := newNeighbors(n, k)
	heap := make([]neighborCand, 0, k)
	for i := 0; i < n; i++ {
		heap = heap[:0]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			c := m.At(i, j)
			if forbid >= 0 && c >= forbid {
				continue
			}
			heap = pushBounded(heap, k, neighborCand{j, c})
		}
		setCheapest(nb.Out, nb.OutCost, i, heap, k)

		heap = heap[:0]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			c := m.At(j, i)
			if forbid >= 0 && c >= forbid {
				continue
			}
			heap = pushBounded(heap, k, neighborCand{j, c})
		}
		setCheapest(nb.In, nb.InCost, i, heap, k)
	}
	return nb
}

// candAfter reports whether x orders strictly after y in (cost, city)
// order — the selection key everywhere neighbor candidates are ranked.
func candAfter(x, y neighborCand) bool {
	if x.cost != y.cost {
		return x.cost > y.cost
	}
	return x.city > y.city
}

// pushBounded offers cand to the size-k max-heap h (worst candidate at
// the root, ordered by candAfter) and returns the updated heap: grow
// while under capacity, otherwise replace the root only if cand beats
// it. After offering every candidate, h holds exactly the k smallest in
// (cost, city) order — candidates arrive in increasing city order, so
// the (cost, city) key makes the strict comparisons reproduce a stable
// by-cost sort's choice among ties.
func pushBounded(h []neighborCand, k int, cand neighborCand) []neighborCand {
	if len(h) < k {
		h = append(h, cand)
		// Sift up.
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !candAfter(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		return h
	}
	if k == 0 || !candAfter(h[0], cand) {
		return h
	}
	h[0] = cand
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && candAfter(h[l], h[big]) {
			big = l
		}
		if r < len(h) && candAfter(h[r], h[big]) {
			big = r
		}
		if big == i {
			return h
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// cycleCost is CycleCost over any Costs.
func cycleCost(m Costs, t Tour) Cost {
	var sum Cost
	for k := range t {
		sum += m.At(t[k], t[(k+1)%len(t)])
	}
	return sum
}
