package tsp

import (
	"cmp"
	"math/rand"
	"slices"
)

// NearestNeighbor builds a tour by starting at city start and repeatedly
// moving to the cheapest unvisited city. With rng == nil the choice is
// deterministic; otherwise each step picks uniformly among the k cheapest
// unvisited cities (k = 3, per the "randomized Nearest Neighbor starts" of
// the paper's solver protocol). Ties are broken by city index.
func NearestNeighbor(s *SparseMatrix, start int, rng *rand.Rand) Tour {
	return walk(s, start, nil, rng)
}

// walk is the nearest-neighbor walk over chains: succ[c] is the fixed
// successor of c, or -1 (a nil succ fixes none). A city with a fixed
// predecessor is never a free choice, and arriving at a chain's head
// appends the whole chain, so the walk continues from the chain's tail.
// start must not have a fixed predecessor.
//
// From the current city, the candidate successors are the free exception
// columns plus the first three free non-exception columns (all
// non-exception columns cost the row default, so the three with the
// smallest indices are exactly the ones a stable best-3 scan of the whole
// row would keep). O(V+E + n·k) over the whole tour instead of Θ(n²).
func walk(s *SparseMatrix, start int, succ []int, rng *rand.Rand) Tour {
	n := s.Len()
	// Doubly linked list over free cities in index order.
	next := make([]int, n+1) // next[n] is the head sentinel
	prev := make([]int, n+1)
	for i := 0; i <= n; i++ {
		next[i] = (i + 1) % (n + 1)
		prev[i] = (i + n) % (n + 1)
	}
	visited := make([]bool, n)
	visit := func(c int) {
		visited[c] = true
		next[prev[c]] = next[c]
		prev[next[c]] = prev[c]
	}
	for _, c := range succ {
		if c >= 0 {
			visit(c)
		}
	}
	isExc := make([]bool, n)
	tour := make(Tour, 0, n)
	// enter appends c and the chain it heads, returning the chain's tail.
	enter := func(c int) int {
		visit(c)
		tour = append(tour, c)
		for succ != nil && succ[c] >= 0 {
			c = succ[c]
			tour = append(tour, c)
		}
		return c
	}
	cur := enter(start)
	type cand struct {
		city int
		cost Cost
	}
	// Insertion into a best-3 buffer ordered by (cost, city). Candidate
	// cities are distinct, so (cost, city) is a strict total order and
	// the buffer holds exactly the 3 smallest candidates in sorted order.
	var best [3]cand
	nbest := 0
	add := func(c cand) {
		k := nbest
		if k > len(best)-1 {
			k = len(best) - 1
			if c.cost > best[k].cost || (c.cost == best[k].cost && c.city > best[k].city) {
				return
			}
		}
		for k > 0 && (best[k-1].cost > c.cost || (best[k-1].cost == c.cost && best[k-1].city > c.city)) {
			best[k] = best[k-1]
			k--
		}
		best[k] = c
		if nbest < len(best) {
			nbest++
		}
	}
	for len(tour) < n {
		nbest = 0
		cols, vals := s.Row(cur)
		for k, c := range cols {
			isExc[c] = true
			if !visited[c] {
				add(cand{c, vals[k]})
			}
		}
		def := s.RowDefault(cur)
		taken := 0
		for c := next[n]; c != n && taken < 3; c = next[c] {
			if isExc[c] {
				continue
			}
			add(cand{c, def})
			taken++
		}
		for _, c := range cols {
			isExc[c] = false
		}
		pick := 0
		if rng != nil && nbest > 1 {
			pick = rng.Intn(nbest)
		}
		cur = enter(best[pick].city)
	}
	return tour
}

// GreedyEdge builds a tour by ranking the candidate edges of nb (the
// Out lists local search prunes its moves to) by cost and accepting each
// edge whose tail still lacks an outgoing edge, whose head still lacks an
// incoming edge, and which does not close a subcycle. The chains left
// over are joined by the nearest-neighbor walk, starting from the head of
// the lowest-index chain. With a non-nil rng the edge order is perturbed
// (each edge's sort key is multiplied by a factor drawn from [1, 1.25)),
// giving the "randomized Greedy starts" of the paper's solver protocol.
// O(nk log(nk)) time and O(nk) memory for lists of width k.
func GreedyEdge(m *SparseMatrix, nb *Neighbors, rng *rand.Rand) Tour {
	n := m.Len()
	type edge struct {
		key      float64
		from, to int32
	}
	size := 0
	for _, out := range nb.Out {
		size += len(out)
	}
	edges := make([]edge, 0, size)
	for i, out := range nb.Out {
		for r, j := range out {
			key := float64(nb.OutCost[i][r])
			if rng != nil {
				key *= 1 + rng.Float64()*0.25
			}
			edges = append(edges, edge{key, int32(i), int32(j)})
		}
	}
	// (key, from, to) is a strict total order, so any sort gives the
	// same edge order.
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		if a.from != b.from {
			return int(a.from - b.from)
		}
		return int(a.to - b.to)
	})

	next := make([]int, n) // chosen successor, -1 if none
	prev := make([]int, n) // chosen predecessor, -1 if none
	// chainEnd[x] is, for the head x of a chain, the tail of that chain
	// (and vice versa); it rejects subcycles in O(1).
	chainEnd := make([]int, n)
	for i := range next {
		next[i], prev[i], chainEnd[i] = -1, -1, i
	}
	accepted := 0
	for _, e := range edges {
		if accepted == n-1 {
			break
		}
		from, to := int(e.from), int(e.to)
		if next[from] != -1 || prev[to] != -1 || chainEnd[from] == to {
			continue
		}
		next[from] = to
		prev[to] = from
		// from was the tail of a chain whose head is chainEnd[from]; to
		// was the head of a chain whose tail is chainEnd[to]. The merged
		// chain runs newHead..from->to..newTail.
		newHead, newTail := chainEnd[from], chainEnd[to]
		chainEnd[newHead] = newTail
		chainEnd[newTail] = newHead
		accepted++
	}
	return walk(m, slices.Index(prev, -1), next, nil)
}

// IdentityTour returns the tour visiting cities in index order, i.e. the
// "original ordering given by the compiler" start of the paper's protocol.
func IdentityTour(n int) Tour {
	t := make(Tour, n)
	for i := range t {
		t[i] = i
	}
	return t
}
