package tsp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// This file pins the phase-1 contract of the two-level tour kernel: the
// TwoLevel-based ThreeOpt is a pure data-structure swap, bit-identical to
// the array kernel it replaced — same move sequence, same counters, same
// materialized tours (including rotation), same costs. arrayThreeOpt
// below is a frozen copy of that historical kernel (threeopt.go at the
// pre-two-level commit), kept as the executable specification.

// arrayThreeOpt is the historical array-tour 3-opt kernel: tour + position
// index, Θ(n) rebuild per applied move. Search logic is line-for-line the
// one in improveFrom; only the tour representation differs.
type arrayThreeOpt struct {
	m   *SparseMatrix
	nb  *Neighbors
	n   int
	t   Tour
	pos []int
	c   Cost

	dontLook []bool
	queue    []int
	inQueue  []bool
	scratch  []int

	tried    int64
	accepted int64
}

func newArrayThreeOpt(m *SparseMatrix, nb *Neighbors, t Tour) *arrayThreeOpt {
	n := m.Len()
	o := &arrayThreeOpt{
		m:        m,
		nb:       nb,
		n:        n,
		pos:      make([]int, n),
		dontLook: make([]bool, n),
		inQueue:  make([]bool, n),
		scratch:  make([]int, n),
	}
	o.SetTour(t)
	return o
}

func (o *arrayThreeOpt) SetTour(t Tour) {
	if len(o.t) == o.n {
		copy(o.t, t)
	} else {
		o.t = t.Clone()
	}
	for i, city := range o.t {
		o.pos[city] = i
	}
	o.c = CycleCost(o.m, o.t)
	o.queue = o.queue[:0]
	for i := 0; i < o.n; i++ {
		o.dontLook[i] = false
		o.inQueue[i] = true
		o.queue = append(o.queue, i)
	}
}

// Kick loads t, a double-bridge kick of the current local optimum, and
// wakes only the kick's cut-edge endpoints ends: the kick-local reset of
// ThreeOpt.SetKickedTour, built from the full reset.
func (o *arrayThreeOpt) Kick(t Tour, ends [6]int) {
	o.SetTour(t)
	for i := range o.dontLook {
		o.dontLook[i] = true
		o.inQueue[i] = false
	}
	o.queue = o.queue[:0]
	o.wake(ends[:]...)
}

func (o *arrayThreeOpt) Tour() Tour { return o.t.Clone() }
func (o *arrayThreeOpt) Cost() Cost { return o.c }

func (o *arrayThreeOpt) Moves() (tried, accepted int64) { return o.tried, o.accepted }

func (o *arrayThreeOpt) succ(x int) int { return o.t[(o.pos[x]+1)%o.n] }
func (o *arrayThreeOpt) pred(x int) int { return o.t[(o.pos[x]-1+o.n)%o.n] }

func (o *arrayThreeOpt) np(a, x int) int {
	return (o.pos[x] - o.pos[a] - 1 + o.n) % o.n
}

func (o *arrayThreeOpt) Optimize() Cost {
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
		if !o.improveFrom(a) {
			o.dontLook[a] = true
		} else if !o.inQueue[a] {
			o.inQueue[a] = true
			o.queue = append(o.queue, a)
		}
	}
	return o.c
}

func (o *arrayThreeOpt) improveFrom(a int) bool {
	b := o.succ(a)
	gainBase := o.m.At(a, b)
	for _, d := range o.nb.Out[a] {
		o.tried++
		g1 := gainBase - o.m.At(a, d)
		if g1 <= 0 {
			break
		}
		npD := o.np(a, d)
		if npD < 1 || npD > o.n-2 {
			continue
		}
		c := o.pred(d)
		g2 := g1 + o.m.At(c, d)
		for _, e := range o.nb.In[b] {
			g3 := g2 - o.m.At(e, b)
			if g3 <= 0 {
				break
			}
			npE := o.np(a, e)
			if npE < npD || npE > o.n-2 {
				continue
			}
			f := o.succ(e)
			total := g3 + o.m.At(e, f) - o.m.At(c, f)
			if total <= 0 {
				continue
			}
			o.apply(a, npD, npE, total)
			o.wake(a, b, c, d, e, f)
			return true
		}
	}
	return false
}

func (o *arrayThreeOpt) apply(a, npD, npE int, gain Cost) {
	pa := o.pos[a]
	n := o.n
	k := 0
	o.scratch[k] = a
	k++
	for i := npD; i <= npE; i++ {
		o.scratch[k] = o.t[(pa+1+i)%n]
		k++
	}
	for i := 0; i < npD; i++ {
		o.scratch[k] = o.t[(pa+1+i)%n]
		k++
	}
	for i := npE + 1; i <= n-2; i++ {
		o.scratch[k] = o.t[(pa+1+i)%n]
		k++
	}
	copy(o.t, o.scratch[:n])
	for i, city := range o.t {
		o.pos[city] = i
	}
	o.c -= gain
	o.accepted++
}

func (o *arrayThreeOpt) wake(cities ...int) {
	for _, c := range cities {
		o.dontLook[c] = false
		if !o.inQueue[c] {
			o.inQueue[c] = true
			o.queue = append(o.queue, c)
		}
	}
}

// tourEqual reports exact element-wise equality (including rotation).
func tourEqual(a, b Tour) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickTwoLevelMatchesSliceModel drives a TwoLevel and a naive slice
// model through the same random valid splices and checks every query
// agrees after each one: Succ/Pred for all cities, First, Rank, Np from a
// random anchor, and the materialized tour.
func TestQuickTwoLevelMatchesSliceModel(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%40) + 4
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		model := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { model[i], model[j] = model[j], model[i] })
		tl := new(TwoLevel)
		tl.Init(model)
		pos := make([]int, n)
		scratch := make(Tour, n)
		check := func() bool {
			for i, c := range model {
				pos[c] = i
			}
			if int(tl.first) != model[0] {
				return false
			}
			for _, c := range model {
				if tl.Succ(c) != model[(pos[c]+1)%n] || tl.Pred(c) != model[(pos[c]-1+n)%n] {
					return false
				}
				// Ranks are rotation-relative: successive cities differ
				// by +1 mod n, which is all NpFrom needs.
				if tl.Rank(tl.Succ(c)) != (tl.Rank(c)+1)%n {
					return false
				}
			}
			a := model[rng.Intn(n)]
			ra := tl.Rank(a)
			for _, x := range model {
				want := (pos[x] - pos[a] - 1 + n) % n
				if tl.NpFrom(ra, x) != want {
					return false
				}
			}
			return tourEqual(tl.AppendTour(scratch[:0]), model)
		}
		if !check() {
			return false
		}
		for step := 0; step < 30; step++ {
			// A random proper splice: anchor a, block at relative
			// positions [npD, npE] with 1 <= npD <= npE <= n-2.
			pa := rng.Intn(n)
			a := model[pa]
			npD := 1 + rng.Intn(n-2)
			npE := npD + rng.Intn(n-1-npD)
			d := model[(pa+1+npD)%n]
			e := model[(pa+1+npE)%n]
			// Model update mirrors the array kernel's apply: rotate so a
			// leads, then block, then the skipped prefix, then the rest.
			next := make(Tour, 0, n)
			next = append(next, a)
			for i := npD; i <= npE; i++ {
				next = append(next, model[(pa+1+i)%n])
			}
			for i := 0; i < npD; i++ {
				next = append(next, model[(pa+1+i)%n])
			}
			for i := npE + 1; i <= n-2; i++ {
				next = append(next, model[(pa+1+i)%n])
			}
			model = next
			tl.Splice(a, d, e)
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// kickRounds is how many double-bridge kicks the kick-loop locksteps
// below drive, enough for the don't-look state of one kick-local
// re-optimization to carry into the next.
const kickRounds = 24

// TestQuickThreeOptMatchesArrayKernel is the phase-1 bit-identity pin:
// on random instances, the TwoLevel-based ThreeOpt and the frozen array
// kernel make the identical move sequence — equal tours (element-wise,
// same rotation), equal costs, and equal tried/accepted counters — both
// for the initial optimization and across kickRounds double-bridge kick
// rounds, each driven through the kick-local reset (SetKickedTour and
// the array kernel's Kick) with the six-edge kick cost.
func TestQuickThreeOptMatchesArrayKernel(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%60) + 4
		m := randMatrix(n, 1000, int64(seedRaw))
		nb := BuildNeighbors(m)
		rng := rand.New(rand.NewSource(int64(seedRaw) + 17))
		start := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { start[i], start[j] = start[j], start[i] })

		got := NewThreeOpt(m, nb, start)
		want := newArrayThreeOpt(m, nb, start)
		optimizePure(got)
		want.Optimize()
		cur := want.Tour()
		for round := 0; ; round++ {
			if got.Cost() != want.Cost() || !tourEqual(got.AppendTour(nil), want.Tour()) {
				return false
			}
			gs := got.MoveStats()
			wt, wa := want.Moves()
			if gs.TriedTotal() != wt || gs.AcceptedTotal() != wa {
				return false
			}
			if round == kickRounds {
				return true
			}
			kick, kc, ends := doubleBridge(nil, cur, rng, m, want.Cost())
			if kc != CycleCost(m, kick) {
				return false // the six-edge kick delta must be exact
			}
			got.SetKickedTour(kick, kc, ends)
			want.Kick(kick, ends)
			optimizePure(got)
			want.Optimize()
			cur = want.Tour()
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refKickReset is the kick-local reset spelled out from the full one:
// SetTour (which rescans the cost), then every city don't-look and only
// the distinct endpoints queued, in ends order.
func refKickReset(o *ThreeOpt, t Tour, ends [6]int) {
	o.SetTour(t)
	for i := range o.dontLook {
		o.dontLook[i] = true
		o.inQueue[i] = false
	}
	o.queue = o.queue[:0]
	o.wake(ends[:]...)
}

// TestQuickSetKickedTourMatchesReference pins the solver's kick loop with
// Or-opt both off and on: production SetKickedTour and Optimize (with
// Or-opt off, optimizePure) against a ThreeOpt reset by refKickReset and stepped through the frozen move
// searches, over kickRounds kicks of the incumbent. Tours, costs and the
// full MoveStats must agree after every round, and the kicked tour must
// optimize to the same tour and cost as its reference reset.
func TestQuickSetKickedTourMatchesReference(t *testing.T) {
	f := func(nRaw, seedRaw uint16, orOpt bool) bool {
		n := int(nRaw%60) + 4
		m := randMatrix(n, 800, int64(seedRaw)+9)
		nb := BuildNeighbors(m)
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		start := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { start[i], start[j] = start[j], start[i] })

		got := NewThreeOpt(m, nb, start)
		want := NewThreeOpt(m, nb, start)
		optimize, frozenOr := (*ThreeOpt).Optimize, frozenOrOptFrom
		if !orOpt {
			optimize, frozenOr = optimizePure, nil
		}
		cur := start
		curCost := CycleCost(m, start)
		for round := 0; ; round++ {
			optimize(got)
			optimizeSteps(want, frozenImproveFrom, frozenOr)
			gt := got.AppendTour(nil)
			if got.Cost() != want.Cost() || !tourEqual(gt, want.AppendTour(nil)) ||
				got.MoveStats() != want.MoveStats() || got.Cost() != CycleCost(m, gt) {
				return false
			}
			if round == 0 || got.Cost() <= curCost {
				cur, curCost = gt, got.Cost()
			}
			if round == kickRounds {
				return true
			}
			kick, kc, ends := doubleBridge(nil, cur, rng, m, curCost)
			got.SetKickedTour(kick, kc, ends)
			refKickReset(want, kick, ends)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestKickWakesOnlyEndpoints pins SetKickedTour's state: the queue holds
// exactly the kick's distinct cut-edge endpoints, every other city is
// don't-look, the endpoints are not, and Cost is the kicked tour's.
func TestKickWakesOnlyEndpoints(t *testing.T) {
	for _, n := range []int{4, 5, 13, 60} {
		m := randMatrix(n, 1000, int64(n))
		rng := rand.New(rand.NewSource(int64(n) * 3))
		o := newSearch(m, IdentityTour(n))
		for round := 0; round < 20; round++ {
			cost := o.Optimize()
			kick, kc, ends := doubleBridge(nil, o.AppendTour(nil), rng, m, cost)
			o.SetKickedTour(kick, kc, ends)
			woken := map[int]bool{}
			var distinct []int
			for _, c := range ends {
				if !woken[c] {
					woken[c] = true
					distinct = append(distinct, c)
				}
			}
			if !reflect.DeepEqual(o.queue, distinct) {
				t.Fatalf("n=%d round %d: queue %v, want the distinct endpoints %v", n, round, o.queue, distinct)
			}
			for c := 0; c < n; c++ {
				if o.dontLook[c] == woken[c] || o.inQueue[c] != woken[c] {
					t.Fatalf("n=%d round %d: city %d don't-look %v queued %v, endpoint %v",
						n, round, c, o.dontLook[c], o.inQueue[c], woken[c])
				}
			}
			if o.Cost() != CycleCost(m, kick) {
				t.Fatalf("n=%d round %d: Cost %d, kicked tour costs %d", n, round, o.Cost(), CycleCost(m, kick))
			}
			if !tourEqual(o.AppendTour(nil), kick) {
				t.Fatalf("n=%d round %d: tour %v, kicked %v", n, round, o.AppendTour(nil), kick)
			}
		}
	}
}

// TestTwoLevelRebuildPreservesTour forces enough splices to trigger the
// segment-count rebuild and checks the tour and rotation survive.
func TestTwoLevelRebuildPreservesTour(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(7))
	model := IdentityTour(n)
	tl := new(TwoLevel)
	tl.Init(model)
	pos := make([]int, n)
	for step := 0; step < 500; step++ {
		for i, c := range model {
			pos[c] = i
		}
		pa := rng.Intn(n)
		a := model[pa]
		npD := 1 + rng.Intn(n-2)
		npE := npD + rng.Intn(n-1-npD)
		d := model[(pa+1+npD)%n]
		e := model[(pa+1+npE)%n]
		next := make(Tour, 0, n)
		next = append(next, a)
		for i := npD; i <= npE; i++ {
			next = append(next, model[(pa+1+i)%n])
		}
		for i := 0; i < npD; i++ {
			next = append(next, model[(pa+1+i)%n])
		}
		for i := npE + 1; i <= n-2; i++ {
			next = append(next, model[(pa+1+i)%n])
		}
		model = next
		tl.Splice(a, d, e)
	}
	if !tourEqual(tl.AppendTour(nil), model) {
		t.Fatalf("tour diverged from model after %d splices", 500)
	}
	if int(tl.first) != model[0] {
		t.Fatalf("first city = %d, want %d", tl.first, model[0])
	}
}
