package tsp

import (
	"container/heap"
	"context"
	"math"
	"sort"
	"testing"
	"time"
)

// This file pins the rewritten sparseOneTree kernel (indexed heap,
// incremental re-sort, dense scan path, pooled workspace) bit-identical
// to the container/heap + sort.Slice implementation it replaced. The
// frozen reference below is that original implementation, copied
// verbatim with renamed types — the same playbook twolevel_test.go uses
// for the array-tour 3-opt kernel.

// frozenOneTree is the pre-rewrite sparseOneTree, kept as the oracle.
type frozenOneTree struct {
	sp *SparseMatrix
	n  int
	N  int
	L  Cost

	colStart []int
	colRows  []int
	colVals  []Cost

	pi  []float64
	deg []int

	inTree []bool
	key    []float64
	par    []int
	h      frozenOfferHeap

	inByPi     []int
	outByDefPi []int
	outByPi    []int
}

type frozenOffer struct {
	val  float64
	node int
	par  int
}

type frozenOfferHeap []frozenOffer

func (h frozenOfferHeap) Len() int { return len(h) }
func (h frozenOfferHeap) Less(i, j int) bool {
	if h[i].val != h[j].val {
		return h[i].val < h[j].val
	}
	return h[i].node < h[j].node
}
func (h frozenOfferHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *frozenOfferHeap) Push(x interface{}) { *h = append(*h, x.(frozenOffer)) }
func (h *frozenOfferHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func newFrozenOneTree(sp *SparseMatrix) *frozenOneTree {
	n := sp.Len()
	N := 2 * n
	t := &frozenOneTree{
		sp:         sp,
		n:          n,
		N:          N,
		L:          sp.Forbid(),
		pi:         make([]float64, N),
		deg:        make([]int, N),
		inTree:     make([]bool, N),
		key:        make([]float64, N),
		par:        make([]int, N),
		inByPi:     make([]int, 0, n-1),
		outByDefPi: make([]int, 0, n),
		outByPi:    make([]int, 0, n),
	}
	t.colStart = make([]int, n+1)
	for _, c := range sp.cols {
		t.colStart[c+1]++
	}
	for j := 0; j < n; j++ {
		t.colStart[j+1] += t.colStart[j]
	}
	t.colRows = make([]int, len(sp.cols))
	t.colVals = make([]Cost, len(sp.cols))
	fill := append([]int(nil), t.colStart[:n]...)
	for i := 0; i < n; i++ {
		cols, vals := sp.Row(i)
		for k, c := range cols {
			t.colRows[fill[c]] = i
			t.colVals[fill[c]] = vals[k]
			fill[c]++
		}
	}
	return t
}

func (t *frozenOneTree) run() float64 {
	n, N := t.n, t.N
	pi := t.pi
	for i := range t.deg {
		t.deg[i] = 0
		t.inTree[i] = false
		t.key[i] = otUnreached
		t.par[i] = -1
	}
	t.h = t.h[:0]

	t.inByPi = t.inByPi[:0]
	t.outByDefPi = t.outByDefPi[:0]
	t.outByPi = t.outByPi[:0]
	for j := 1; j < n; j++ {
		t.inByPi = append(t.inByPi, 2*j)
	}
	for i := 0; i < n; i++ {
		t.outByDefPi = append(t.outByDefPi, 2*i+1)
		t.outByPi = append(t.outByPi, 2*i+1)
	}
	sort.Slice(t.inByPi, func(a, b int) bool {
		x, y := t.inByPi[a], t.inByPi[b]
		if pi[x] != pi[y] {
			return pi[x] < pi[y]
		}
		return x < y
	})
	defPi := func(out int) float64 { return float64(t.sp.RowDefault(out/2)) + pi[out] }
	sort.Slice(t.outByDefPi, func(a, b int) bool {
		x, y := t.outByDefPi[a], t.outByDefPi[b]
		if defPi(x) != defPi(y) {
			return defPi(x) < defPi(y)
		}
		return x < y
	})
	sort.Slice(t.outByPi, func(a, b int) bool {
		x, y := t.outByPi[a], t.outByPi[b]
		if pi[x] != pi[y] {
			return pi[x] < pi[y]
		}
		return x < y
	})
	inHead, outDefHead, outPiHead := 0, 0, 0

	bestDefOut, bestDefOutArg := otUnreached, -1
	bestPiIn, bestPiInArg := otUnreached, -1
	bestPiOut, bestPiOutArg := otUnreached, -1
	L := float64(t.L)

	improve := func(node int, val float64, par int) {
		if val < t.key[node] {
			t.key[node] = val
			t.par[node] = par
			heap.Push(&t.h, frozenOffer{val, node, par})
		}
	}
	join := func(v int) {
		t.inTree[v] = true
		if w := v ^ 1; w != 0 && !t.inTree[w] {
			improve(w, -L+pi[v]+pi[w], v)
		}
		if v&1 == 1 {
			i := v / 2
			if d := defPi(v); d < bestDefOut {
				bestDefOut, bestDefOutArg = d, v
			}
			if pi[v] < bestPiOut {
				bestPiOut, bestPiOutArg = pi[v], v
			}
			def := float64(t.sp.RowDefault(i))
			cols, vals := t.sp.Row(i)
			for k, j := range cols {
				if c := float64(vals[k]); c < def {
					if u := 2 * j; u != 0 && !t.inTree[u] {
						improve(u, c+pi[v]+pi[u], v)
					}
				}
			}
		} else {
			j := v / 2
			if pi[v] < bestPiIn {
				bestPiIn, bestPiInArg = pi[v], v
			}
			for k := t.colStart[j]; k < t.colStart[j+1]; k++ {
				i := t.colRows[k]
				if c := float64(t.colVals[k]); c < float64(t.sp.RowDefault(i)) {
					if u := 2*i + 1; !t.inTree[u] {
						improve(u, c+pi[v]+pi[u], v)
					}
				}
			}
		}
	}

	total := 0.0
	join(1)
	for count := 1; count < N-1; count++ {
		var bestVal = otUnreached
		var bestNode, bestPar = -1, -1
		for len(t.h) > 0 {
			top := t.h[0]
			if t.inTree[top.node] || top.val > t.key[top.node] {
				heap.Pop(&t.h)
				continue
			}
			bestVal, bestNode, bestPar = top.val, top.node, top.par
			break
		}
		for inHead < len(t.inByPi) && t.inTree[t.inByPi[inHead]] {
			inHead++
		}
		if inHead < len(t.inByPi) {
			v := t.inByPi[inHead]
			ch, par := bestDefOut, bestDefOutArg
			if fb := L + bestPiIn; fb < ch {
				ch, par = fb, bestPiInArg
			}
			if ch < otUnreached {
				if val := ch + pi[v]; val < bestVal || (val == bestVal && v < bestNode) {
					bestVal, bestNode, bestPar = val, v, par
				}
			}
		}
		for outDefHead < len(t.outByDefPi) && t.inTree[t.outByDefPi[outDefHead]] {
			outDefHead++
		}
		if outDefHead < len(t.outByDefPi) && bestPiIn < otUnreached {
			v := t.outByDefPi[outDefHead]
			if val := defPi(v) + bestPiIn; val < bestVal || (val == bestVal && v < bestNode) {
				bestVal, bestNode, bestPar = val, v, bestPiInArg
			}
		}
		for outPiHead < len(t.outByPi) && t.inTree[t.outByPi[outPiHead]] {
			outPiHead++
		}
		if outPiHead < len(t.outByPi) && bestPiOut < otUnreached {
			v := t.outByPi[outPiHead]
			if val := L + bestPiOut + pi[v]; val < bestVal || (val == bestVal && v < bestNode) {
				bestVal, bestNode, bestPar = val, v, bestPiOutArg
			}
		}
		if bestNode < 0 {
			break
		}
		total += bestVal
		t.deg[bestNode]++
		t.deg[bestPar]++
		join(bestNode)
	}

	best1, best2 := otUnreached, otUnreached
	arg1, arg2 := -1, -1
	for b := 1; b < N; b++ {
		var c float64
		switch {
		case b == 1:
			c = -L
		case b&1 == 1:
			c = float64(t.sp.At(b/2, 0))
		default:
			c = L
		}
		d := c + pi[0] + pi[b]
		switch {
		case d < best1:
			best2, arg2 = best1, arg1
			best1, arg1 = d, b
		case d < best2:
			best2, arg2 = d, b
		}
	}
	total += best1 + best2
	t.deg[0] += 2
	t.deg[arg1]++
	t.deg[arg2]++
	return total
}

// TestSparseOneTreeMatchesFrozen drives the rewritten kernel and the
// frozen reference through the production subgradient ascent in lockstep
// on random sparse instances and requires bit-identical 1-tree weights
// and degree vectors at every iterate. Instance sizes straddle
// denseOneTreeCutoff so both the scan path and the heap path are pinned,
// and kernels are released between instances so pool reuse is exercised
// under dirty scratch.
func TestSparseOneTreeMatchesFrozen(t *testing.T) {
	cases := []struct {
		n       int
		maxCost int64
		excProb float64
		seed    int64
	}{
		{5, 40, 0.5, 1},
		{16, 100, 0.3, 2},
		{60, 1000, 0.2, 3},   // N=120: scan path
		{129, 500, 0.15, 4},  // N=258: first heap-path size
		{200, 2000, 0.10, 5}, // N=400: heap path, sparser
		{200, 7, 0.40, 6},    // heavy cost ties stress every tie-break
	}
	for _, tc := range cases {
		sp := randSparse(tc.n, tc.maxCost, tc.excProb, tc.seed)
		ot := newSparseOneTree(sp)
		fr := newFrozenOneTree(sp)
		ub := float64(CycleCost(sp, NearestNeighbor(sp, 0, nil))) - float64(tc.n)*float64(ot.L)
		alpha := 2.0
		for it := 0; it < 40; it++ {
			w := ot.run()
			fw := fr.run()
			if math.Float64bits(w) != math.Float64bits(fw) {
				t.Fatalf("n=%d seed=%d iterate %d: weight %v (new) != %v (frozen)",
					tc.n, tc.seed, it, w, fw)
			}
			for i := 0; i < ot.N; i++ {
				if ot.deg[i] != fr.deg[i] {
					t.Fatalf("n=%d seed=%d iterate %d: deg[%d] = %d (new) != %d (frozen)",
						tc.n, tc.seed, it, i, ot.deg[i], fr.deg[i])
				}
			}
			var piSum float64
			for _, p := range ot.pi {
				piSum += p
			}
			bound := w - 2*piSum
			if subgradientStep(ot.pi, ot.deg, alpha, ub, bound) == 0 {
				break
			}
			subgradientStep(fr.pi, fr.deg, alpha, ub, bound)
			for i := 0; i < ot.N; i++ {
				if math.Float64bits(ot.pi[i]) != math.Float64bits(fr.pi[i]) {
					t.Fatalf("n=%d seed=%d iterate %d: pi[%d] diverged", tc.n, tc.seed, it, i)
				}
			}
			if (it+1)%10 == 0 {
				alpha /= 2
			}
		}
		ot.release() // next case draws a dirty kernel from the pool
	}
}

// TestSparseOneTreeDenseMatchesHeap forces the scan-based and heap-based
// selection paths onto the same instances — overriding the size cutoff in
// both directions — and requires bit-identical trajectories. This is the
// guarantee that denseOneTreeCutoff is a pure constant-factor knob.
func TestSparseOneTreeDenseMatchesHeap(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{
		{24, 10},  // naturally dense; heap path forced
		{150, 11}, // naturally heap; scan path forced
	} {
		sp := randSparse(tc.n, 300, 0.25, tc.seed)
		a := newSparseOneTree(sp)
		b := newSparseOneTree(sp)
		b.dense = !b.dense
		ub := float64(CycleCost(sp, NearestNeighbor(sp, 0, nil))) - float64(tc.n)*float64(a.L)
		alpha := 2.0
		for it := 0; it < 30; it++ {
			wa, wb := a.run(), b.run()
			if math.Float64bits(wa) != math.Float64bits(wb) {
				t.Fatalf("n=%d iterate %d: weight %v (dense=%v) != %v (dense=%v)",
					tc.n, it, wa, a.dense, wb, b.dense)
			}
			for i := 0; i < a.N; i++ {
				if a.deg[i] != b.deg[i] {
					t.Fatalf("n=%d iterate %d: deg[%d] = %d != %d", tc.n, it, i, a.deg[i], b.deg[i])
				}
			}
			var piSum float64
			for _, p := range a.pi {
				piSum += p
			}
			bound := wa - 2*piSum
			if subgradientStep(a.pi, a.deg, alpha, ub, bound) == 0 {
				break
			}
			subgradientStep(b.pi, b.deg, alpha, ub, bound)
			if (it+1)%8 == 0 {
				alpha /= 2
			}
		}
		b.release()
		a.release()
	}
}

// countdownCtx is a context that reports itself cancelled starting from
// the k-th poll of Done(): a deterministic way to cancel a Held-Karp
// ascent in the middle of its schedule (wall-clock cancellation would
// race the fast kernel).
type countdownCtx struct {
	remaining int
	fired     bool
	done      chan struct{}
}

func newCountdownCtx(polls int) *countdownCtx {
	return &countdownCtx{remaining: polls, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} {
	if !c.fired {
		if c.remaining--; c.remaining < 0 {
			c.fired = true
			close(c.done)
		}
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	if c.fired {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Value(any) any               { return nil }

// TestHeldKarpBoundCancelMidAscent cancels the ascent mid-schedule and
// checks the anytime contract: Truncated is set, fewer iterates ran, the
// truncated bound is a valid lower bound on the directed optimum and no
// stronger than the full ascent's bound (it maximizes over a prefix of
// the same deterministic trajectory) — and the pooled workspace the
// cancelled call released is not corrupted: an immediate full-length
// rerun reproduces the uncancelled result bit for bit.
func TestHeldKarpBoundCancelMidAscent(t *testing.T) {
	sp := randSparse(9, 60, 0.4, 42)
	opts := HeldKarpOptions{Iterations: 80}
	full := HeldKarpBound(sp, opts)
	if full.Truncated {
		t.Fatalf("uncancelled run reports Truncated")
	}

	cancelOpts := opts
	cancelOpts.Context = newCountdownCtx(10)
	trunc := HeldKarpBound(sp, cancelOpts)
	if !trunc.Truncated {
		t.Fatalf("cancelled run not Truncated (ran %d iterates)", trunc.Iterations)
	}
	if trunc.Iterations <= 1 || trunc.Iterations >= full.Iterations {
		t.Fatalf("cancellation not mid-ascent: %d iterates of %d", trunc.Iterations, full.Iterations)
	}
	if trunc.Bound > full.Bound {
		t.Fatalf("truncated bound %v stronger than full bound %v", trunc.Bound, full.Bound)
	}
	_, opt := SolveExact(sp)
	if trunc.Bound > float64(opt)+1e-9 {
		t.Fatalf("truncated bound %v exceeds optimal tour cost %d", trunc.Bound, opt)
	}

	// The cancelled call returned its kernel to the pool mid-state;
	// a fresh full run must be untouched by that.
	rerun := HeldKarpBound(sp, opts)
	if math.Float64bits(rerun.Bound) != math.Float64bits(full.Bound) ||
		rerun.Iterations != full.Iterations || rerun.Converged != full.Converged {
		t.Fatalf("rerun after cancelled call diverged: %+v vs %+v", rerun, full)
	}
}

// TestSparseOneTreeSteadyStateAllocs pins the tentpole's allocation
// contract: after the first iterate has warmed the workspace, run() and
// the re-sorts allocate nothing.
func TestSparseOneTreeSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{40, 200} { // scan path and heap path
		sp := randSparse(n, 500, 0.2, 7)
		ot := newSparseOneTree(sp)
		ub := float64(CycleCost(sp, NearestNeighbor(sp, 0, nil))) - float64(n)*float64(ot.L)
		w := ot.run()
		var piSum float64
		for _, p := range ot.pi {
			piSum += p
		}
		subgradientStep(ot.pi, ot.deg, 2, ub, w-2*piSum)
		allocs := testing.AllocsPerRun(20, func() {
			w := ot.run()
			var piSum float64
			for _, p := range ot.pi {
				piSum += p
			}
			subgradientStep(ot.pi, ot.deg, 1, ub, w-2*piSum)
		})
		ot.release()
		if allocs != 0 {
			t.Fatalf("n=%d: %v allocs per warm iterate, want 0", n, allocs)
		}
	}
}
