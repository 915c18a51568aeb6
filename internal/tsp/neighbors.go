package tsp

import (
	"cmp"
	"slices"
)

// Neighbors holds, for every city, candidate lists of the cheapest
// outgoing and incoming directed edges. Local search only considers moves
// whose newly added edges come from these lists, which is the standard
// Johnson-McGeoch neighbor-list pruning.
type Neighbors struct {
	// Out[i] lists cities j in increasing order of cost(i->j).
	Out [][]int
	// In[j] lists cities i in increasing order of cost(i->j).
	In [][]int
	// OutCost[i][r] is cost(i->Out[i][r]) and InCost[j][r] is
	// cost(In[j][r]->j): the selection already knows them, and the local
	// search reads them here instead of through At.
	OutCost [][]Cost
	InCost  [][]Cost
}

// newNeighbors returns empty lists for n cities of width at most k. Each
// of the four tables is one header slice over one flat backing array, so
// construction allocates eight times regardless of n.
func newNeighbors(n, k int) *Neighbors {
	return &Neighbors{
		Out:     rows(make([]int, n*k), n, k),
		In:      rows(make([]int, n*k), n, k),
		OutCost: rows(make([]Cost, n*k), n, k),
		InCost:  rows(make([]Cost, n*k), n, k),
	}
}

// rows cuts flat into n empty rows of capacity k.
func rows[T any](flat []T, n, k int) [][]T {
	r := make([][]T, n)
	for i := range r {
		r[i] = flat[i*k : i*k : (i+1)*k]
	}
	return r
}

// setCheapest fills row i of cities and costs with the k cheapest of cands.
func setCheapest(cities [][]int, costs [][]Cost, i int, cands []neighborCand, k int) {
	cands = takeCheapest(cands, k)
	for _, c := range cands {
		cities[i] = append(cities[i], c.city)
		costs[i] = append(costs[i], c.cost)
	}
}

// DefaultNeighborCount is the candidate-list width used when callers pass
// k <= 0 to BuildNeighbors.
const DefaultNeighborCount = 12

// neighborCand is a candidate edge endpoint with its cost.
type neighborCand struct {
	city int
	cost Cost
}

// takeCheapest sorts candidates by (cost, city) and returns the first k
// — the same order a stable by-cost sort over index-ordered candidates
// produces. Cities are distinct, so the key is total and any sort
// yields it.
func takeCheapest(cands []neighborCand, k int) []neighborCand {
	slices.SortFunc(cands, func(a, b neighborCand) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return a.city - b.city
	})
	if k > len(cands) {
		k = len(cands)
	}
	return cands[:k]
}

// BuildNeighbors computes the k cheapest outgoing and incoming neighbors
// of every city, skipping edges whose cost is at least forbid (pass
// s.Forbid(), or a negative number to keep every edge). Ties are broken
// by city index, so the result is a pure function of the instance's
// costs: two encodings of the same instance yield identical lists. The
// construction runs in O((V+E)·(k+log k)) instead of Θ(n² log n): each
// row contributes its exception columns plus the k smallest-index default
// columns (all default columns tie on cost, and index order is exactly
// how a cost-stable sort breaks that tie).
func BuildNeighbors(s *SparseMatrix, k int, forbid Cost) *Neighbors {
	n := s.Len()
	if k <= 0 {
		k = DefaultNeighborCount
	}
	if k > n-1 {
		k = n - 1
	}
	nb := newNeighbors(n, k)
	// Out lists: per row, the exception columns plus the k smallest-index
	// default columns.
	isExc := make([]bool, n)
	cands := make([]neighborCand, 0, 2*k)
	for i := 0; i < n; i++ {
		cands = cands[:0]
		cols, vals := s.Row(i)
		for kk, c := range cols {
			isExc[c] = true
			if forbid >= 0 && vals[kk] >= forbid {
				continue
			}
			cands = append(cands, neighborCand{c, vals[kk]})
		}
		def := s.RowDefault(i)
		if forbid < 0 || def < forbid {
			taken := 0
			for j := 0; j < n && taken < k; j++ {
				if j == i || isExc[j] {
					continue
				}
				cands = append(cands, neighborCand{j, def})
				taken++
			}
		}
		for _, c := range cols {
			isExc[c] = false
		}
		setCheapest(nb.Out, nb.OutCost, i, cands, k)
	}
	// In lists: transpose the exceptions once, pre-rank rows by default
	// cost, then per column merge its exception rows with the k cheapest
	// default rows (skipping rows that have an exception in this column).
	colStart := make([]int, n+1)
	for _, c := range s.cols {
		colStart[c+1]++
	}
	for j := 0; j < n; j++ {
		colStart[j+1] += colStart[j]
	}
	colRows := make([]int, len(s.cols))
	colVals := make([]Cost, len(s.cols))
	fill := append([]int(nil), colStart[:n]...)
	for i := 0; i < n; i++ {
		cols, vals := s.Row(i)
		for kk, c := range cols {
			colRows[fill[c]] = i
			colVals[fill[c]] = vals[kk]
			fill[c]++
		}
	}
	// Rows in increasing (default, index) order — the preference order for
	// default-cost incoming edges.
	rowsByDef := make([]int, n)
	for i := range rowsByDef {
		rowsByDef[i] = i
	}
	slices.SortFunc(rowsByDef, func(a, b int) int {
		if c := cmp.Compare(s.RowDefault(a), s.RowDefault(b)); c != 0 {
			return c
		}
		return a - b
	})
	for j := 0; j < n; j++ {
		cands = cands[:0]
		rows := colRows[colStart[j]:colStart[j+1]]
		vals := colVals[colStart[j]:colStart[j+1]]
		for kk, i := range rows {
			isExc[i] = true
			if forbid >= 0 && vals[kk] >= forbid {
				continue
			}
			cands = append(cands, neighborCand{i, vals[kk]})
		}
		taken := 0
		for _, i := range rowsByDef {
			if taken >= k {
				break
			}
			if i == j || isExc[i] {
				continue
			}
			def := s.RowDefault(i)
			if forbid >= 0 && def >= forbid {
				continue
			}
			cands = append(cands, neighborCand{i, def})
			taken++
		}
		for _, i := range rows {
			isExc[i] = false
		}
		setCheapest(nb.In, nb.InCost, j, cands, k)
	}
	return nb
}
