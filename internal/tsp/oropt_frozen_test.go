package tsp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// This file pins the local-search kernel that reads candidate edge costs
// from the neighbor lists, and the Or-opt scan that builds its candidate
// array once per block start, bit-identical to the At-reading 3-opt
// search and the per-length Or-opt scan they replaced. It does the same
// for SolveExact's flat DP tables against the per-subset slices. The
// frozen references below are those implementations, copied verbatim as
// functions over a *ThreeOpt — the playbook onetree_frozen_test.go uses
// for the 1-tree kernel.

// frozenImproveFrom is the pre-change ThreeOpt.improveFrom.
func frozenImproveFrom(o *ThreeOpt, a int) bool {
	b := o.tl.Succ(a)
	gainBase := o.m.At(a, b)
	ra := o.tl.Rank(a)
	for _, d := range o.nb.Out[a] {
		o.stats.Tried++
		g1 := gainBase - o.m.At(a, d)
		if g1 <= 0 {
			break // neighbor lists are sorted by cost
		}
		npD := o.tl.NpFrom(ra, d)
		if npD < 1 || npD > o.n-2 {
			continue // d must lie strictly between b and a
		}
		c := o.tl.Pred(d)
		g2 := g1 + o.m.At(c, d)
		for _, e := range o.nb.In[b] {
			g3 := g2 - o.m.At(e, b)
			if g3 <= 0 {
				break
			}
			npE := o.tl.NpFrom(ra, e)
			if npE < npD || npE > o.n-2 {
				continue // e must lie in segment d..pred(a)
			}
			f := o.tl.Succ(e)
			total := g3 + o.m.At(e, f) - o.m.At(c, f)
			if total <= 0 {
				continue
			}
			o.tl.Splice(a, d, e)
			o.c -= total
			o.stats.Accepted++
			o.recordSplice(npE - npD + 1)
			o.wake(a, b, c, d, e, f)
			return true
		}
	}
	return false
}

// frozenOrOptFrom is the pre-change ThreeOpt.orOptFrom.
func frozenOrOptFrom(o *ThreeOpt, s int) bool {
	n := o.n
	p := o.tl.Pred(s)
	base := o.m.At(p, s)
	o.tl.Rank(s) // validate ranks once; the scan uses rank/NpFrom
	e := s
	for l := 1; l <= 3 && l <= n-2; l++ {
		if l > 1 {
			e = o.tl.Succ(e)
			if e == p {
				break // block would swallow everything but p
			}
		}
		q := o.tl.Succ(e)
		qGain := o.m.At(e, q) - o.m.At(p, q)
		for _, c := range o.nb.In[s] {
			o.stats.OrTried++
			g1 := base - o.m.At(c, s)
			if g1 <= 0 {
				break // nb.In[s] is sorted by cost
			}
			npS := o.tl.NpFrom(o.tl.rank(c), s)
			if npS < 1 || npS > n-1-l {
				continue
			}
			d := o.tl.Succ(c)
			g2 := g1 + o.m.At(c, d) - o.m.At(e, d)
			if g2 <= 0 {
				continue
			}
			total := g2 + qGain
			if total <= 0 {
				continue
			}
			o.tl.Splice(c, s, e)
			o.c -= total
			o.stats.OrAccepted++
			o.recordSplice(l)
			o.wake(p, q, s, e, c, d)
			return true
		}
	}
	return false
}

// frozenSolveExact is the pre-change SolveExact, with one pair of
// dp/parent slices per subset.
func frozenSolveExact(m Costs) (Tour, Cost) {
	n := m.Len()
	if n == 1 {
		return Tour{0}, 0
	}
	if s, ok := m.(*SparseMatrix); ok {
		m = s.Dense()
	}
	if n == 2 {
		return Tour{0, 1}, m.At(0, 1) + m.At(1, 0)
	}
	k := n - 1
	size := 1 << k
	const inf = Cost(1) << 62
	dp := make([][]Cost, size)
	parent := make([][]int8, size)
	for mask := 1; mask < size; mask++ {
		dp[mask] = make([]Cost, k)
		parent[mask] = make([]int8, k)
		for j := range dp[mask] {
			dp[mask][j] = inf
			parent[mask][j] = -1
		}
	}
	for j := 0; j < k; j++ {
		dp[1<<j][j] = m.At(0, j+1)
	}
	for mask := 1; mask < size; mask++ {
		for j := 0; j < k; j++ {
			cur := dp[mask][j]
			if cur >= inf || mask&(1<<j) == 0 {
				continue
			}
			for nxt := 0; nxt < k; nxt++ {
				if mask&(1<<nxt) != 0 {
					continue
				}
				nm := mask | 1<<nxt
				cand := cur + m.At(j+1, nxt+1)
				if cand < dp[nm][nxt] {
					dp[nm][nxt] = cand
					parent[nm][nxt] = int8(j)
				}
			}
		}
	}
	full := size - 1
	best := inf
	last := -1
	for j := 0; j < k; j++ {
		cand := dp[full][j] + m.At(j+1, 0)
		if cand < best {
			best = cand
			last = j
		}
	}
	order := make([]int, 0, n)
	mask := full
	for j := last; j >= 0; {
		order = append(order, j+1)
		pj := parent[mask][j]
		mask &^= 1 << j
		j = int(pj)
	}
	tour := make(Tour, 0, n)
	tour = append(tour, 0)
	for i := len(order) - 1; i >= 0; i-- {
		tour = append(tour, order[i])
	}
	return tour, best
}

// kernelMove is one accepted move of a stepped Optimize: the city it was
// found from, its family, and the tour and cost right after it.
type kernelMove struct {
	from int
	or   bool
	cost Cost
	tour Tour
}

// optimizeSteps is ThreeOpt.Optimize with the two move searches passed
// in, recording every accepted move in order. A nil orOpt searches with
// the 3-opt family alone.
func optimizeSteps(o *ThreeOpt, improve, orOpt func(*ThreeOpt, int) bool) []kernelMove {
	var moves []kernelMove
	if o.n < 3 {
		return moves
	}
	for len(o.queue) > 0 {
		a := o.queue[len(o.queue)-1]
		o.queue = o.queue[:len(o.queue)-1]
		o.inQueue[a] = false
		if o.dontLook[a] {
			continue
		}
		improved := improve(o, a)
		byOr := false
		if !improved && orOpt != nil {
			improved = orOpt(o, a)
			byOr = improved
		}
		if !improved {
			o.dontLook[a] = true
			continue
		}
		moves = append(moves, kernelMove{from: a, or: byOr, cost: o.c, tour: o.AppendTour(nil)})
		if !o.inQueue[a] {
			o.inQueue[a] = true
			o.queue = append(o.queue, a)
		}
	}
	return moves
}

// forbidHi is the cost of an edge the lockstep instances treat as
// forbidden: narrowNeighbors leaves such edges out, and can leave a city
// with an empty list.
const forbidHi = Cost(1) << 30

// narrowNeighbors cuts every list of nb to its first k entries and before
// its first edge costing forbid or more. The lists are sorted by cost, so
// both cuts keep a prefix: the k-wide lists a narrower build would give,
// and lists that skip forbidden edges, some of them short or empty.
func narrowNeighbors(nb *Neighbors, k int, forbid Cost) *Neighbors {
	cut := func(cities [][]int, costs [][]Cost) ([][]int, [][]Cost) {
		cs, ws := make([][]int, len(cities)), make([][]Cost, len(costs))
		for i, row := range costs {
			r := 0
			for r < len(row) && r < k && row[r] < forbid {
				r++
			}
			cs[i], ws[i] = cities[i][:r], row[:r]
		}
		return cs, ws
	}
	out := &Neighbors{}
	out.Out, out.OutCost = cut(nb.Out, nb.OutCost)
	out.In, out.InCost = cut(nb.In, nb.InCost)
	return out
}

// denseWithForbidden returns randMatrix(n, maxCost, seed) with about a
// third of its edges forbidden. Every in-edge of city 0 is forbidden, so
// its In list is empty; the rest of the identity cycle stays cheap.
func denseWithForbidden(n int, maxCost, seed int64) *SparseMatrix {
	m := randDense(n, maxCost, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && (j == 0 || j != (i+1)%n && rng.Intn(3) == 0) {
				m.Set(i, j, forbidHi)
			}
		}
	}
	return m.Sparse()
}

// sparseWithForbidden returns a sparse instance whose odd rows default to
// a forbidden cost, so each of them leaves only its exception columns.
func sparseWithForbidden(n int, maxCost, seed int64) *SparseMatrix {
	rng := rand.New(rand.NewSource(seed))
	b := NewSparseBuilder(n)
	for i := 0; i < n; i++ {
		def := Cost(rng.Int63n(maxCost))
		if i%2 == 1 {
			def = forbidHi
		}
		var cols []int
		var vals []Cost
		for j := 0; j < n; j++ {
			if j != i && (j == (i+1)%n || rng.Intn(4) == 0) {
				cols = append(cols, j)
				vals = append(vals, Cost(rng.Int63n(maxCost)))
			}
		}
		b.AddRow(def, cols, vals)
	}
	return b.Finish()
}

// lockstepInstance is a cost matrix with the neighbor lists to search it.
type lockstepInstance struct {
	name string
	m    *SparseMatrix
	nb   *Neighbors
}

// lockstepInstances covers dense and sparse instances from a handful of
// cities to a few hundred, plus tie-heavy cost ranges, narrow candidate
// lists and instances with forbidden edges. The dense ones are random
// full matrices in canonical sparse form, so most of their rows are wide.
func lockstepInstances() []lockstepInstance {
	var out []lockstepInstance
	sizes := []int{4, 5, 8, 13, 23, 24, 25, 40, 90, 257, 300}
	for _, n := range sizes {
		for seed := int64(0); seed < 3; seed++ {
			s := seed*101 + int64(n)
			dense := randMatrix(n, 1000, s)
			ties := randMatrix(n, 4, s)
			sparse := randSparse(n, 1000, 0.2, s)
			sparseTies := randSparse(n, 3, 0.3, s)
			fd := denseWithForbidden(n, 1000, s)
			fs := sparseWithForbidden(n, 1000, s)
			out = append(out,
				lockstepInstance{fmt.Sprintf("dense/n%d/s%d", n, seed), dense, BuildNeighbors(dense)},
				lockstepInstance{fmt.Sprintf("dense-k4/n%d/s%d", n, seed), dense, narrowNeighbors(BuildNeighbors(dense), 4, forbidHi)},
				lockstepInstance{fmt.Sprintf("ties/n%d/s%d", n, seed), ties, BuildNeighbors(ties)},
				lockstepInstance{fmt.Sprintf("sparse/n%d/s%d", n, seed), sparse, BuildNeighbors(sparse)},
				lockstepInstance{fmt.Sprintf("sparse-ties/n%d/s%d", n, seed), sparseTies, narrowNeighbors(BuildNeighbors(sparseTies), 5, forbidHi)},
				lockstepInstance{fmt.Sprintf("forbid-dense/n%d/s%d", n, seed), fd, narrowNeighbors(BuildNeighbors(fd), DefaultNeighborCount, forbidHi)},
				lockstepInstance{fmt.Sprintf("forbid-sparse/n%d/s%d", n, seed), fs, narrowNeighbors(BuildNeighbors(fs), DefaultNeighborCount, forbidHi)},
			)
		}
	}
	return out
}

// TestLocalSearchMatchesFrozen drives the kernel and its frozen
// reference from the same starts, with and without Or-opt, through an
// initial descent and a few kick-and-reoptimize rounds. Every accepted
// move (its city, family, tour and cost), the move counters and the
// final tour must agree; production Optimize must land on the same tour,
// cost and counters as the stepped frozen run.
func TestLocalSearchMatchesFrozen(t *testing.T) {
	for _, inst := range lockstepInstances() {
		n := inst.m.Len()
		for _, orOpt := range []bool{false, true} {
			for seed := int64(0); seed < 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				start := IdentityTour(n)
				rng.Shuffle(n, func(i, j int) { start[i], start[j] = start[j], start[i] })

				got := NewThreeOpt(inst.m, inst.nb, start)
				want := NewThreeOpt(inst.m, inst.nb, start)
				prod := NewThreeOpt(inst.m, inst.nb, start)
				orFrom, frozenOr, optimize := (*ThreeOpt).orOptFrom, frozenOrOptFrom, (*ThreeOpt).Optimize
				if !orOpt {
					orFrom, frozenOr, optimize = nil, nil, optimizePure
				}
				kicks := rand.New(rand.NewSource(seed + 7))
				var kick Tour
				for round := 0; round < 4; round++ {
					where := fmt.Sprintf("%s or=%v seed=%d round=%d", inst.name, orOpt, seed, round)
					gm := optimizeSteps(got, (*ThreeOpt).improveFrom, orFrom)
					wm := optimizeSteps(want, frozenImproveFrom, frozenOr)
					if len(gm) != len(wm) {
						t.Fatalf("%s: %d accepted moves, frozen %d", where, len(gm), len(wm))
					}
					for i := range gm {
						if !reflect.DeepEqual(gm[i], wm[i]) {
							t.Fatalf("%s: move %d = %+v, frozen %+v", where, i, gm[i], wm[i])
						}
					}
					optimize(prod)
					wt := want.AppendTour(nil)
					if !reflect.DeepEqual(prod.AppendTour(nil), wt) || prod.Cost() != want.Cost() {
						t.Fatalf("%s: Optimize tour %v cost %d, frozen %v cost %d",
							where, prod.AppendTour(nil), prod.Cost(), wt, want.Cost())
					}
					if got.MoveStats() != want.MoveStats() || prod.MoveStats() != want.MoveStats() {
						t.Fatalf("%s: move stats %+v / %+v, frozen %+v", where, got.MoveStats(), prod.MoveStats(), want.MoveStats())
					}
					if cycleCost(inst.m, wt) != want.Cost() {
						t.Fatalf("%s: frozen cost %d does not match its tour", where, want.Cost())
					}
					var c Cost
					var ends [6]int
					kick, c, ends = doubleBridge(kick, wt, kicks, inst.m, want.Cost())
					for _, o := range []*ThreeOpt{got, want, prod} {
						o.SetKickedTour(kick, c, ends)
					}
				}
			}
		}
	}
}

// TestSolveExactMatchesFrozen pins the flat DP tables tour for tour
// against the per-subset slices, on distinct, tie-heavy and all-equal
// costs and on a sparse instance.
func TestSolveExactMatchesFrozen(t *testing.T) {
	for n := 2; n <= 12; n++ {
		for seed := int64(0); seed < 4; seed++ {
			s := seed*37 + int64(n)
			for _, m := range []*SparseMatrix{
				randMatrix(n, 1000, s),
				randMatrix(n, 3, s),
				randMatrix(n, 1, s),
				randSparse(n, 5, 0.3, s),
			} {
				gt, gc := SolveExact(m)
				wt, wc := frozenSolveExact(m)
				if gc != wc || !reflect.DeepEqual(gt, wt) {
					t.Fatalf("n=%d seed=%d: tour %v cost %d, frozen %v cost %d", n, seed, gt, gc, wt, wc)
				}
			}
		}
	}
}

// TestSetTourPanicsOnInvalidTour pins that SetTour still rejects a tour
// of the wrong length, an out-of-range city and a repeated city, now
// that it validates with its own queue bitmap.
func TestSetTourPanicsOnInvalidTour(t *testing.T) {
	m := randMatrix(5, 100, 1)
	o := newSearch(m, IdentityTour(5))
	for _, bad := range []Tour{
		{0, 1, 2, 3},
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2, 3, 5},
		{0, 1, -1, 3, 4},
		{0, 1, 2, 2, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetTour(%v) did not panic", bad)
				}
			}()
			o.SetTour(bad)
		}()
	}
	// A valid tour after the rejected ones still optimizes normally.
	o.SetTour(Tour{4, 3, 2, 1, 0})
	if c := o.Optimize(); c != CycleCost(m, o.AppendTour(nil)) {
		t.Fatalf("cost %d does not match the tour", c)
	}
}
