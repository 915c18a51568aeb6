package tsp

import (
	"math/rand"
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
	if nb == nil {
		nb = BuildNeighbors(m, DefaultNeighborCount, m.Forbid())
	}
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
		tl := NewTwoLevel(model)
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

// TestQuickThreeOptMatchesArrayKernel is the phase-1 bit-identity pin:
// on random instances, the TwoLevel-based ThreeOpt and the frozen array
// kernel make the identical move sequence — equal tours (element-wise,
// same rotation), equal costs, and equal tried/accepted counters — both
// for the initial optimization and across double-bridge kick rounds
// driven through the known-cost SetTourCost path.
func TestQuickThreeOptMatchesArrayKernel(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%60) + 4
		m := randMatrix(n, 1000, int64(seedRaw))
		nb := BuildNeighbors(m, DefaultNeighborCount, m.Forbid())
		rng := rand.New(rand.NewSource(int64(seedRaw) + 17))
		start := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { start[i], start[j] = start[j], start[i] })

		got := NewThreeOpt(m, nb, start)
		want := newArrayThreeOpt(m, nb, start)
		got.Optimize()
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
			if round == 3 {
				return true
			}
			var kc Cost
			kick, kc := doubleBridge(nil, cur, rng, m, want.Cost())
			if kc != CycleCost(m, kick) {
				return false // the six-edge kick delta must be exact
			}
			got.SetTourCost(kick, kc)
			want.SetTour(kick)
			got.Optimize()
			want.Optimize()
			cur = want.Tour()
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSetTourCostMatchesSetTour pins that the known-cost reset path
// is exactly SetTour minus the rescan.
func TestQuickSetTourCostMatchesSetTour(t *testing.T) {
	f := func(nRaw, seedRaw uint16) bool {
		n := int(nRaw%30) + 4
		m := randMatrix(n, 800, int64(seedRaw)+9)
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		tour := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { tour[i], tour[j] = tour[j], tour[i] })
		a := NewThreeOpt(m, nil, tour)
		b := NewThreeOpt(m, nil, tour)
		next, _ := doubleBridge(nil, tour, rng, nil, 0)
		a.SetTour(next)
		b.SetTourCost(next, CycleCost(m, next))
		a.Optimize()
		b.Optimize()
		return a.Cost() == b.Cost() && tourEqual(a.AppendTour(nil), b.AppendTour(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoLevelRebuildPreservesTour forces enough splices to trigger the
// segment-count rebuild and checks the tour and rotation survive.
func TestTwoLevelRebuildPreservesTour(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(7))
	model := IdentityTour(n)
	tl := NewTwoLevel(model)
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
