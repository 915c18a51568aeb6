package tsp

import "math/bits"

// ThreeOpt is a directed, reversal-free 3-opt local search.
//
// The paper solves the branch-alignment DTSP by transforming it to a
// symmetric TSP (each city i becomes an in-node and an out-node joined by
// a locked zero-cost edge; see Sym) and running iterated 3-Opt with the
// locks respected. On that transformed instance, 2-opt moves are never
// feasible (both reconnecting edges would join two in-nodes and two
// out-nodes), and the only feasible 3-opt moves are exactly the directed
// segment-exchange moves implemented here: remove three directed edges
// (a->b), (c->d), (e->f) that appear in this cyclic order and reconnect as
// (a->d), (e->b), (c->f), turning the cycle
//
//	a b..c d..e f..a   into   a d..e b..c f..a
//
// No segment is ever reversed, so arc costs never need to be re-read in
// the opposite direction. Working directly in the directed space is
// equivalent to, and considerably simpler than, manipulating the 2n-city
// symmetric tour; TestThreeOptMatchesSymmetricModel verifies the
// equivalence.
//
// The search uses sorted candidate neighbor lists and don't-look bits
// (Johnson-McGeoch style) and applies first-improvement moves. The tour
// lives in a two-level doubly-linked list (TwoLevel), so applying a move
// is an O(√n) splice instead of the Θ(n) array rebuild earlier versions
// paid — move application no longer dominates large solves. A second
// move family, Or-opt segment relocation (see oropt.go), shares the same
// queue and don't-look bits.
type ThreeOpt struct {
	m  *SparseMatrix
	nb *Neighbors
	n  int
	tl *TwoLevel
	c  Cost

	dontLook []bool
	queue    []int
	inQueue  []bool

	orCands []orCand // orOptFrom's candidate array, reused across calls

	stats MoveStats
}

// MoveStats aggregates solver-effort counters per move family. Tried
// counts candidate moves whose first reconnection edge was gain-tested;
// Accepted counts applied moves. Plain field increments (one predictable
// add each) keep the counters always-on without measurable inner-loop
// cost — see bench_obs_test.go.
type MoveStats struct {
	// Tried and Accepted count the 3-opt segment-exchange family.
	Tried, Accepted int64
	// OrTried and OrAccepted count the Or-opt relocation family.
	OrTried, OrAccepted int64
	// SpliceBuckets is a power-of-two histogram of applied splice lengths
	// (the number of cities in the relocated block): bucket i counts
	// moves with length in (2^(i-1), 2^i] (bucket 0: length 1).
	SpliceBuckets [32]int64
	// SpliceSum totals the splice lengths, so mean splice length stays
	// exact when the distribution is reported from the buckets.
	SpliceSum int64
}

// Sub returns the counter deltas s - t (for diffing snapshots around one
// local-search run; the solver reuses one ThreeOpt across runs).
func (s MoveStats) Sub(t MoveStats) MoveStats {
	s.Tried -= t.Tried
	s.Accepted -= t.Accepted
	s.OrTried -= t.OrTried
	s.OrAccepted -= t.OrAccepted
	for i := range s.SpliceBuckets {
		s.SpliceBuckets[i] -= t.SpliceBuckets[i]
	}
	s.SpliceSum -= t.SpliceSum
	return s
}

// TriedTotal returns candidate moves examined across all families.
func (s MoveStats) TriedTotal() int64 { return s.Tried + s.OrTried }

// AcceptedTotal returns moves applied across all families.
func (s MoveStats) AcceptedTotal() int64 { return s.Accepted + s.OrAccepted }

// recordSplice tallies one applied move of splice length l.
func (o *ThreeOpt) recordSplice(l int) {
	o.stats.SpliceBuckets[bits.Len(uint(l-1))]++
	o.stats.SpliceSum += int64(l)
}

// NewThreeOpt creates a local search over matrix m with candidate lists nb
// starting from tour t. The tour is copied. nb must have been built over
// m (BuildNeighbors): the search reads candidate edge costs from nb's
// cost tables, not from m.
func NewThreeOpt(m *SparseMatrix, nb *Neighbors, t Tour) *ThreeOpt {
	n := m.Len()
	o := &ThreeOpt{
		m:        m,
		nb:       nb,
		n:        n,
		dontLook: make([]bool, n),
		inQueue:  make([]bool, n),
		tl:       &TwoLevel{},
	}
	o.SetTour(t)
	return o
}

// SetTour replaces the current tour (copying it) and resets search
// state: every city is queued with its don't-look bit clear. The copy
// goes into the existing two-level structure, so after construction
// SetTour allocates nothing — the solver resets the search once per run.
func (o *ThreeOpt) SetTour(t Tour) {
	o.checkTour(t, o.inQueue)
	o.tl.Init(t)
	o.c = CycleCost(o.m, t)
	o.queue = o.queue[:0]
	for i := 0; i < o.n; i++ {
		o.dontLook[i] = false
		o.inQueue[i] = true
		o.queue = append(o.queue, i)
	}
}

// SetKickedTour replaces the current tour with t, the double-bridge kick
// of a local optimum, whose cost c the caller derived from the kick's
// six-edge delta and whose cut-edge endpoints are ends (see
// doubleBridge). Only the distinct endpoints are queued; every other city
// starts don't-look, because its neighbors are the ones it had in the
// local optimum. A kick-and-reoptimize round thus scans what the kick
// disturbed instead of the whole tour. Like SetTour it copies t,
// allocates nothing and panics unless t is a permutation.
func (o *ThreeOpt) SetKickedTour(t Tour, c Cost, ends [6]int) {
	// After a successful check every seen bit is set: each city is
	// don't-look until woken below.
	o.checkTour(t, o.dontLook)
	o.tl.Init(t)
	o.c = c
	o.queue = o.queue[:0]
	clear(o.inQueue)
	o.wake(ends[:]...)
}

// checkTour panics unless t is a permutation of the n cities, using seen,
// one of the optimizer's own n-entry bitmaps, as the seen set so a reset
// allocates nothing. Every entry of seen is true when it returns.
func (o *ThreeOpt) checkTour(t Tour, seen []bool) {
	if len(t) != o.n {
		panic("tsp: ThreeOpt: invalid tour")
	}
	clear(seen)
	for _, x := range t {
		if x < 0 || x >= o.n || seen[x] {
			panic("tsp: ThreeOpt: invalid tour")
		}
		seen[x] = true
	}
}

// AppendTour appends the current tour to dst[:0] and returns it,
// allocating nothing when dst has capacity n.
func (o *ThreeOpt) AppendTour(dst Tour) Tour { return o.tl.AppendTour(dst) }

// Cost returns the (incrementally maintained) cost of the current tour.
func (o *ThreeOpt) Cost() Cost { return o.c }

// MoveStats returns a snapshot of the cumulative per-family counters:
// candidate moves examined and applied since the ThreeOpt was created
// (across SetTour resets), the solver-effort telemetry behind the "moves
// tried vs accepted" counters.
func (o *ThreeOpt) MoveStats() MoveStats { return o.stats }

// Optimize runs the search to a local optimum and returns the final cost.
// The 3-opt and Or-opt families share one queue: a city is marked
// don't-look only when neither family improves from it, so the result is
// locally optimal under both up to the don't-look bits. A move can open
// a move from a city already marked whose own edges it left alone; a
// second Optimize from a full queue (SetTour) would find it.
func (o *ThreeOpt) Optimize() Cost {
	if o.n < 3 {
		return o.c
	}
	for len(o.queue) > 0 {
		a := o.queue[len(o.queue)-1]
		o.queue = o.queue[:len(o.queue)-1]
		o.inQueue[a] = false
		if o.dontLook[a] {
			continue
		}
		if !o.improveFrom(a) && !o.orOptFrom(a) {
			o.dontLook[a] = true
		} else if !o.inQueue[a] {
			// Re-examine a after a successful move from it.
			o.inQueue[a] = true
			o.queue = append(o.queue, a)
		}
	}
	return o.c
}

// improveFrom searches for an improving segment-exchange move whose first
// removed edge is (a, succ(a)); it applies the first one found.
func (o *ThreeOpt) improveFrom(a int) bool {
	b := o.tl.Succ(a)
	gainBase := o.m.At(a, b)
	ra := o.tl.Rank(a)
	outCost := o.nb.OutCost[a]
	for i, d := range o.nb.Out[a] {
		o.stats.Tried++
		g1 := gainBase - outCost[i]
		if g1 <= 0 {
			break // neighbor lists are sorted by cost
		}
		npD := o.tl.NpFrom(ra, d)
		if npD < 1 || npD > o.n-2 {
			continue // d must lie strictly between b and a
		}
		c := o.tl.Pred(d)
		g2 := g1 + o.m.At(c, d)
		inCost := o.nb.InCost[b]
		for j, e := range o.nb.In[b] {
			g3 := g2 - inCost[j]
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

// wake clears don't-look bits for the endpoints touched by a move.
func (o *ThreeOpt) wake(cities ...int) {
	for _, c := range cities {
		o.dontLook[c] = false
		if !o.inQueue[c] {
			o.inQueue[c] = true
			o.queue = append(o.queue, c)
		}
	}
}
