package tsp

import (
	"cmp"
	"slices"
	"sort"
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

// BuildNeighbors computes the k cheapest outgoing and incoming neighbors
// of every city, skipping edges whose cost is at least forbid (pass the
// value of ForbidCost(m), or a negative number to keep every edge). Ties
// are broken by city index, so the result is a pure function of the
// instance's costs: dense and sparse representations of the same
// instance yield identical lists. On a SparseMatrix the construction
// runs in O((V+E)·(k+log k)) instead of Θ(n² log n): each row contributes
// its exception columns plus the k smallest-index default columns (all
// default columns tie on cost, and index order is exactly how a
// cost-stable sort breaks that tie). On dense matrices each row selects
// its k cheapest columns through a bounded (cost, index)-keyed max-heap —
// O(n log k) per row instead of the Θ(n log n) full sort it replaced,
// with an identical result.
func BuildNeighbors(m Costs, k int, forbid Cost) *Neighbors {
	n := m.Len()
	if k <= 0 {
		k = DefaultNeighborCount
	}
	if k > n-1 {
		k = n - 1
	}
	if s, ok := m.(*SparseMatrix); ok {
		return buildNeighborsSparse(s, k, forbid)
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

// neighborCand is a candidate edge endpoint with its cost.
type neighborCand struct {
	city int
	cost Cost
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

func buildNeighborsSparse(s *SparseMatrix, k int, forbid Cost) *Neighbors {
	n := s.Len()
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
	sort.Slice(rowsByDef, func(a, b int) bool {
		if s.def[rowsByDef[a]] != s.def[rowsByDef[b]] {
			return s.def[rowsByDef[a]] < s.def[rowsByDef[b]]
		}
		return rowsByDef[a] < rowsByDef[b]
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
			if forbid >= 0 && s.def[i] >= forbid {
				continue
			}
			cands = append(cands, neighborCand{i, s.def[i]})
			taken++
		}
		for _, i := range rows {
			isExc[i] = false
		}
		setCheapest(nb.In, nb.InCost, j, cands, k)
	}
	return nb
}
