package tsp

import (
	"math"
	"sync"
)

// sparseOneTree computes minimum 1-trees of the 2-city symmetric
// transformation of a sparse DTSP instance without materializing the
// 2n×2n matrix. It is the only 1-tree HeldKarpBound's ascent uses; the
// dense Prim over the materialized matrix survives as a test oracle.
//
// The symmetric instance over N = 2n nodes (in_i = 2i, out_i = 2i+1) has
// three edge classes: locked intra-city edges at -L, directed edges
// {out_i, in_j} at c(i->j), and forbidden same-side edges at L, where
// L = Forbid(). A dense Prim is Θ(N²) per subgradient iteration. Here
// each iteration is O(E + N log N) by splitting the offers to a non-tree
// node into:
//
//   - explicit offers (locked partners and exception edges cheaper than
//     their row default), kept in lazy-deletion min-heaps;
//   - a default channel: every tree out-node offers def(i)+pi to every
//     in-node, so the best such offer is a single scalar, and the best
//     receiver is the non-tree in-node with minimum pi (a static order
//     per iteration, since pi is fixed while the 1-tree is built);
//   - mirrored channels for default edges into out-nodes and for
//     forbidden same-side edges.
//
// Exception edges costlier than their row default are capped at the
// default (equivalently: the default edge of the same pair is kept as a
// parallel edge). Every edge weight used is <= the true symmetric cost,
// so the resulting value is a minimum 1-tree of a relaxed instance and
// remains a valid Held-Karp lower bound after the Lagrangian correction;
// it can only be (marginally) looser than the dense reference, never
// wrong. On branch-alignment instances the cap affects only conditional
// taken-targets costlier than full displacement.
//
// The kernel is built for the subgradient loop around it: every slice
// lives in the struct and is reused across iterates, instances are
// pooled across calls (newSparseOneTree / release), the per-iteration
// selection orders are re-sorted incrementally (only nodes whose pi
// moved — those with degree != 2 in the previous 1-tree — leave their
// old position). Every instance, from three cities up, takes this one
// path: a scan-based Prim used to serve instances of up to 128 cities,
// but once locked-partner fusion and channel pruning landed it lost to
// the heap at every size balignd serves (DESIGN.md §15). A full run()
// performs no allocations in steady state.
type sparseOneTree struct {
	sp *SparseMatrix
	n  int // directed cities
	N  int // symmetric nodes
	L  Cost

	// Join adjacency, prefiltered once per init (it is pi-independent):
	// for each city, the exception offers its out-node (rowAdj*) and its
	// in-node (colAdj*) make on joining the tree, with the receiving
	// symmetric node and the float64 edge cost precomputed. Exceptions at
	// or above their row default are capped away here instead of being
	// re-filtered on every join, and offers into node 0 are dropped
	// (node 0 is closed separately at the end of run).
	rowAdjStart []int
	rowAdjU     []int32
	rowAdjC     []float64
	colAdjStart []int
	colAdjU     []int32
	colAdjC     []float64

	pi  []float64
	deg []int

	inTree []bool
	key    []float64 // best explicit offer per node
	par    []int     // parent achieving key (or channel parent)

	// Lazy-deletion min-heaps of explicit offers, ordered by (val, node)
	// with the keys stored inline. Entries go stale when a better offer
	// for the same node is pushed (val > key[node]) or the node joins the
	// tree; the selection loop pops them on sight, exactly like the
	// container/heap implementation this replaced. Offers are split by
	// class: locked-partner offers (≈ -L, always far below every
	// exception offer and almost always consumed by the very next
	// selection) live in lockH, which therefore stays a handful of
	// entries deep; exception offers live in excH. A node's live offer is
	// unique across both heaps — pushes strictly decrease key[node] — so
	// taking the (val, node)-minimum of the two live tops selects exactly
	// the single-heap minimum, and keeping the ≈N/2 transient locked
	// offers per iterate out of excH saves a full-depth sift on each.
	lockH pairHeap
	excH  pairHeap

	// Static per-iteration selection orders, each sorted by
	// (orderKey, node): in-nodes (excluding node 0) by pi, out-nodes by
	// def+pi. The keys slices cache each node's sort key from the
	// previous iterate, which is what makes incremental re-sorting
	// possible: a node whose recomputed key equals its cached key kept
	// its pi (subgradient updates move only degree != 2 nodes), so the
	// surviving subsequence is already sorted and only the moved nodes
	// need sorting before an O(N) merge.
	//
	// The forbidden-edge channel (candidate 4) needs the min-pi non-tree
	// out-node, but its offers cost at least L, so instead of a third
	// sorted order it keeps minOutPi — the minimum pi over ALL out-nodes
	// this iterate, a lower bound on the candidate's value — and only
	// scans for the exact receiver on the (degenerate) selections where
	// that bound does not already lose.
	inByPi     keyedOrder
	outByDefPi keyedOrder
	minOutPi   float64
	defOff     []float64 // float64(RowDefault(v/2)) per out-node v
	havePrev   bool      // orders hold last iterate's sort

	// Channel scalars: best tree-side endpoints for the channel offers.
	bestDefOut, bestPiIn, bestPiOut          float64
	bestDefOutArg, bestPiInArg, bestPiOutArg int

	// Locked-partner fusion. Roughly half of all selections consume the
	// -L locked offer created by the immediately preceding join; each
	// used to cost a heap push, a full candidate evaluation, and a heap
	// pop. fuseG is a per-iterate lower bound on every non-locked
	// candidate value: exception offers are >= minAdjC + 2·minPi and the
	// channel candidates are >= min(minDefOff, L) + 2·minPi, so
	// fuseG = min(minAdjC, minDefOff, L) + 2·minPi. A locked offer
	// strictly below fuseG is strictly below every competitor at the
	// next selection — no tie-break can arise — so join records it in
	// fused and the selection loop joins the partner immediately,
	// bypassing the heaps and candidates; offers at or above fuseG take
	// the general lockH path. minAdjC and minDefOff are static per
	// instance; minPi is refreshed each run.
	minAdjC, minDefOff float64
	fuseG              float64
	fused              int

	// Re-sort scratch (stable/moved split + merge source).
	stableN, movedN []int32
	stableK, movedK []float64
}

// keyedOrder is one selection order: nodes sorted by (keys[i], nodes[i]).
type keyedOrder struct {
	nodes []int32
	keys  []float64
}

// oneTreePool recycles kernels across bound computations, so a
// per-function fan-out over many small instances allocates each scratch
// slice only until the pool is warm.
var oneTreePool = sync.Pool{New: func() any { return new(sparseOneTree) }}

func newSparseOneTree(sp *SparseMatrix) *sparseOneTree {
	t := oneTreePool.Get().(*sparseOneTree)
	t.init(sp)
	return t
}

// release returns the kernel's scratch to the pool. The caller must not
// use t afterwards.
func (t *sparseOneTree) release() {
	t.sp = nil
	oneTreePool.Put(t)
}

// growI32 and friends reslice s to length n, reallocating only when the
// capacity is insufficient — the pool-friendly version of make.
func growI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

func growInt(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func growF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growBool(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

func (t *sparseOneTree) init(sp *SparseMatrix) {
	n := sp.Len()
	N := 2 * n
	t.sp, t.n, t.N, t.L = sp, n, N, sp.Forbid()

	t.pi = growF64(t.pi, N)
	for i := range t.pi {
		t.pi[i] = 0
	}
	t.deg = growInt(t.deg, N)
	t.inTree = growBool(t.inTree, N)
	t.key = growF64(t.key, N)
	t.par = growInt(t.par, N)
	t.lockH.n = 0
	t.excH.n = 0
	t.havePrev = false

	t.inByPi.nodes = growI32(t.inByPi.nodes, n-1)
	t.inByPi.keys = growF64(t.inByPi.keys, n-1)
	t.outByDefPi.nodes = growI32(t.outByDefPi.nodes, n)
	t.outByDefPi.keys = growF64(t.outByDefPi.keys, n)
	t.defOff = growF64(t.defOff, N)
	t.minDefOff = otUnreached
	for i := 0; i < n; i++ {
		d := float64(sp.RowDefault(i))
		t.defOff[2*i+1] = d
		if d < t.minDefOff {
			t.minDefOff = d
		}
	}

	// Row-side join adjacency: the useful exception offers of each
	// out-node, filtered and converted once.
	rU, rC := t.rowAdjU[:0], t.rowAdjC[:0]
	t.rowAdjStart = growInt(t.rowAdjStart, n+1)
	t.colAdjStart = growInt(t.colAdjStart, n+1)
	for j := 0; j <= n; j++ {
		t.colAdjStart[j] = 0
	}
	t.minAdjC = otUnreached
	for i := 0; i < n; i++ {
		t.rowAdjStart[i] = len(rU)
		def := float64(sp.RowDefault(i))
		cols, vals := sp.Row(i)
		for k, j := range cols {
			if c := float64(vals[k]); c < def {
				t.colAdjStart[j+1]++
				if c < t.minAdjC {
					t.minAdjC = c
				}
				if j != 0 {
					rU = append(rU, int32(2*j))
					rC = append(rC, c)
				}
			}
		}
	}
	t.rowAdjStart[n] = len(rU)
	t.rowAdjU, t.rowAdjC = rU, rC
	// Column-side join adjacency: counting sort of the same filtered
	// entries by column. t.par is N >= n slots and reset at every run(),
	// so it can serve as the per-column fill cursor without an extra
	// slice.
	for j := 0; j < n; j++ {
		t.colAdjStart[j+1] += t.colAdjStart[j]
	}
	t.colAdjU = growI32(t.colAdjU, t.colAdjStart[n])
	t.colAdjC = growF64(t.colAdjC, t.colAdjStart[n])
	fill := growInt(t.par, n)
	copy(fill, t.colAdjStart[:n])
	for i := 0; i < n; i++ {
		def := float64(sp.RowDefault(i))
		cols, vals := sp.Row(i)
		for k, j := range cols {
			if c := float64(vals[k]); c < def {
				t.colAdjU[fill[j]] = int32(2*i + 1)
				t.colAdjC[fill[j]] = c
				fill[j]++
			}
		}
	}
}

const otUnreached = math.MaxFloat64

// heapEnt is one heap entry. Key and node sit in the same 16 bytes, so
// a sift touches one cache line per entry instead of one in a keys
// array plus one in a nodes array — on heaps that outgrow L1 the pop
// cost is cache misses, not comparisons.
type heapEnt struct {
	key  float64
	node int32
}

// pairHeap is a 4-ary min-heap over (val, node) pairs.
type pairHeap struct {
	ents []heapEnt
	n    int
}

// push adds an offer, sifting up by (val, node).
func (h *pairHeap) push(val float64, node int32) {
	i := h.n
	h.n++
	if i == len(h.ents) {
		h.ents = append(h.ents, heapEnt{})
	}
	e := h.ents
	for i > 0 {
		p := (i - 1) / 4
		pe := e[p]
		if !(val < pe.key || (val == pe.key && node < pe.node)) {
			break
		}
		e[i] = pe
		i = p
	}
	e[i] = heapEnt{key: val, node: node}
}

// pop removes the minimum offer. Floyd's bottom-up variant: the hole at
// the root walks down to a leaf along minimum children, then the last
// element drops in and sifts up. The replacement comes from the bottom
// of the heap, so it nearly always belongs near the bottom again and
// the upward pass is shorter than the replacement-vs-children compare
// the classic top-down loop pays at every level. The heap's internal
// layout after a pop may differ from the top-down result, but every
// stored (val, node) pair is distinct — a node's pushes strictly
// decrease its key — so the minimum, which is all the selection loop
// reads, is the same.
func (h *pairHeap) pop() {
	h.n--
	n := h.n
	e := h.ents
	last := e[n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		be := e[c]
		for j := c + 1; j < end; j++ {
			if je := e[j]; je.key < be.key || (je.key == be.key && je.node < be.node) {
				best, be = j, je
			}
		}
		e[i] = be
		i = best
	}
	for i > 0 {
		p := (i - 1) / 4
		pe := e[p]
		if !(last.key < pe.key || (last.key == pe.key && last.node < pe.node)) {
			break
		}
		e[i] = pe
		i = p
	}
	e[i] = last
}

// sortKeyedNodes sorts (nodes, keys) in place by (key, node): introsort
// (median-of-three quicksort, insertion sort below 12, heapsort past the
// depth bound). The comparison is a strict total order — node indices
// are unique — so every correct sort yields the same permutation; this
// one just does it without the closure and interface boxing of
// sort.Slice.
func sortKeyedNodes(nodes []int32, keys []float64) {
	depth := 0
	for x := len(nodes); x > 0; x >>= 1 {
		depth++
	}
	introKeyed(nodes, keys, 2*depth)
}

func keyedLess(k1 float64, n1 int32, k2 float64, n2 int32) bool {
	if k1 != k2 {
		return k1 < k2
	}
	return n1 < n2
}

func introKeyed(nodes []int32, keys []float64, depth int) {
	for len(nodes) > 12 {
		if depth == 0 {
			heapsortKeyed(nodes, keys)
			return
		}
		depth--
		p := partitionKeyed(nodes, keys)
		if p < len(nodes)-p-1 {
			introKeyed(nodes[:p], keys[:p], depth)
			nodes, keys = nodes[p+1:], keys[p+1:]
		} else {
			introKeyed(nodes[p+1:], keys[p+1:], depth)
			nodes, keys = nodes[:p], keys[:p]
		}
	}
	// Insertion sort for the short tail.
	for i := 1; i < len(nodes); i++ {
		kn, kk := nodes[i], keys[i]
		j := i
		for j > 0 && keyedLess(kk, kn, keys[j-1], nodes[j-1]) {
			nodes[j], keys[j] = nodes[j-1], keys[j-1]
			j--
		}
		nodes[j], keys[j] = kn, kk
	}
}

func partitionKeyed(nodes []int32, keys []float64) int {
	// Median-of-three pivot, moved to the end.
	m := len(nodes) / 2
	hi := len(nodes) - 1
	if keyedLess(keys[m], nodes[m], keys[0], nodes[0]) {
		nodes[m], nodes[0] = nodes[0], nodes[m]
		keys[m], keys[0] = keys[0], keys[m]
	}
	if keyedLess(keys[hi], nodes[hi], keys[m], nodes[m]) {
		nodes[hi], nodes[m] = nodes[m], nodes[hi]
		keys[hi], keys[m] = keys[m], keys[hi]
		if keyedLess(keys[m], nodes[m], keys[0], nodes[0]) {
			nodes[m], nodes[0] = nodes[0], nodes[m]
			keys[m], keys[0] = keys[0], keys[m]
		}
	}
	nodes[m], nodes[hi] = nodes[hi], nodes[m]
	keys[m], keys[hi] = keys[hi], keys[m]
	pk, pn := keys[hi], nodes[hi]
	w := 0
	for i := 0; i < hi; i++ {
		if keyedLess(keys[i], nodes[i], pk, pn) {
			nodes[i], nodes[w] = nodes[w], nodes[i]
			keys[i], keys[w] = keys[w], keys[i]
			w++
		}
	}
	nodes[hi], nodes[w] = nodes[w], nodes[hi]
	keys[hi], keys[w] = keys[w], keys[hi]
	return w
}

func heapsortKeyed(nodes []int32, keys []float64) {
	n := len(nodes)
	for i := n/2 - 1; i >= 0; i-- {
		siftKeyed(nodes, keys, i, n)
	}
	for i := n - 1; i > 0; i-- {
		nodes[0], nodes[i] = nodes[i], nodes[0]
		keys[0], keys[i] = keys[i], keys[0]
		siftKeyed(nodes, keys, 0, i)
	}
}

func siftKeyed(nodes []int32, keys []float64, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && keyedLess(keys[c], nodes[c], keys[c+1], nodes[c+1]) {
			c++
		}
		if !keyedLess(keys[root], nodes[root], keys[c], nodes[c]) {
			return
		}
		nodes[root], nodes[c] = nodes[c], nodes[root]
		keys[root], keys[c] = keys[c], keys[root]
		root = c
	}
}

// fillOrders (re)builds the selection orders for the current pi.
// On the first iterate the node lists are materialized and fully sorted;
// afterwards each order is re-sorted incrementally: nodes whose key is
// unchanged (subgradient updates leave degree-2 nodes' pi untouched)
// stay a sorted subsequence, the moved rest is sorted and merged back in
// O(N + moved·log(moved)).
func (t *sparseOneTree) fillOrders() {
	if !t.havePrev {
		in := &t.inByPi
		for j := 1; j < t.n; j++ {
			in.nodes[j-1] = int32(2 * j)
			in.keys[j-1] = t.pi[2*j]
		}
		sortKeyedNodes(in.nodes, in.keys)
		od := &t.outByDefPi
		for i := 0; i < t.n; i++ {
			v := int32(2*i + 1)
			od.nodes[i] = v
			od.keys[i] = t.defOff[v] + t.pi[v]
		}
		sortKeyedNodes(od.nodes, od.keys)
		t.havePrev = true
		return
	}
	t.resort(&t.inByPi, false)
	t.resort(&t.outByDefPi, true)
}

// resort incrementally restores o to (key, node) order after a pi
// update. withDef adds the node's row default to the key (the outByDefPi
// order).
func (t *sparseOneTree) resort(o *keyedOrder, withDef bool) {
	sn := t.stableN[:0]
	sk := t.stableK[:0]
	mn := t.movedN[:0]
	mk := t.movedK[:0]
	for i, x := range o.nodes {
		k := t.pi[x]
		if withDef {
			k = t.defOff[x] + t.pi[x]
		}
		if k == o.keys[i] {
			sn = append(sn, x)
			sk = append(sk, k)
		} else {
			mn = append(mn, x)
			mk = append(mk, k)
		}
	}
	t.stableN, t.stableK, t.movedN, t.movedK = sn, sk, mn, mk
	if len(mn) == 0 {
		return
	}
	sortKeyedNodes(mn, mk)
	// Merge the two sorted runs back into o.
	i, j, w := 0, 0, 0
	for i < len(sn) && j < len(mn) {
		if keyedLess(sk[i], sn[i], mk[j], mn[j]) {
			o.nodes[w], o.keys[w] = sn[i], sk[i]
			i++
		} else {
			o.nodes[w], o.keys[w] = mn[j], mk[j]
			j++
		}
		w++
	}
	for ; i < len(sn); i, w = i+1, w+1 {
		o.nodes[w], o.keys[w] = sn[i], sk[i]
	}
	for ; j < len(mn); j, w = j+1, w+1 {
		o.nodes[w], o.keys[w] = mn[j], mk[j]
	}
}

// improve records a better exception offer for a non-tree node. The
// superseded heap entry, if any, is left in place: it is now stale
// (val > key[node]) and the selection loop discards it on sight.
//
// Channel-dominated offers skip the heap entirely. An in-node u always
// has the default channel open at bestDefOut + pi[u], and bestDefOut
// only decreases as the tree grows, while the channel's receiver — the
// inByPi head h — satisfies pi[h] <= pi[u] as long as u is out of the
// tree. So when val > bestDefOut + pi[u] holds now, candidate 2 beats
// this offer strictly at every later selection and the offer can never
// be the selected minimum; pushing it would only produce a stale pop.
// Out-nodes are symmetric via candidate 3: the outByDefPi head o has
// defOff[o] + pi[o] <= defOff[u] + pi[u], and bestPiIn only decreases,
// so offers with val > defOff[u] + pi[u] + bestPiIn are likewise never
// selected (before the first in-node joins, bestPiIn is +inf and
// nothing is pruned). key and par are still updated — the lazy-deletion
// staleness rule reads them — and ties are kept: only
// strictly dominated offers are dropped, so no (val, node) comparison
// anywhere changes its outcome.
func (t *sparseOneTree) improve(node int, val float64, par int) {
	if val >= t.key[node] {
		return
	}
	t.key[node] = val
	t.par[node] = par
	if node&1 == 0 {
		if val > t.bestDefOut+t.pi[node] {
			return
		}
	} else if val > t.defOff[node]+t.pi[node]+t.bestPiIn {
		return
	}
	t.excH.push(val, int32(node))
}

// join moves v into the tree: update the channel scalars and push the
// explicit offers v now makes to non-tree nodes. v's own heap entries
// become stale lazily.
func (t *sparseOneTree) join(v int) {
	pi, L := t.pi, float64(t.L)
	t.inTree[v] = true
	if w := v ^ 1; w != 0 && !t.inTree[w] {
		if val := -L + pi[v] + pi[w]; val < t.key[w] {
			t.key[w] = val
			t.par[w] = v
			if val < t.fuseG {
				t.fused = w
			} else {
				t.lockH.push(val, int32(w))
			}
		}
	}
	i := v >> 1
	if v&1 == 1 { // out-node of city i
		if d := t.defOff[v] + pi[v]; d < t.bestDefOut {
			t.bestDefOut, t.bestDefOutArg = d, v
		}
		if pi[v] < t.bestPiOut {
			t.bestPiOut, t.bestPiOutArg = pi[v], v
		}
		for k := t.rowAdjStart[i]; k < t.rowAdjStart[i+1]; k++ {
			if u := int(t.rowAdjU[k]); !t.inTree[u] {
				t.improve(u, t.rowAdjC[k]+pi[v]+pi[u], v)
			}
		}
	} else { // in-node of city i
		if pi[v] < t.bestPiIn {
			t.bestPiIn, t.bestPiInArg = pi[v], v
		}
		for k := t.colAdjStart[i]; k < t.colAdjStart[i+1]; k++ {
			if u := int(t.colAdjU[k]); !t.inTree[u] {
				t.improve(u, t.colAdjC[k]+pi[v]+pi[u], v)
			}
		}
	}
}

// run builds the minimum 1-tree under the current pi, fills deg, and
// returns the reduced-cost weight (the same quantity oneTree returns).
func (t *sparseOneTree) run() float64 {
	N := t.N
	pi := t.pi
	for i := 0; i < N; i++ {
		t.deg[i] = 0
		t.inTree[i] = false
		t.key[i] = otUnreached
		t.par[i] = -1
	}
	var inHead, outDefHead int
	t.fused = -1
	t.lockH.n = 0
	t.excH.n = 0
	t.fillOrders()
	t.minOutPi = otUnreached
	minPi := otUnreached
	for v := 0; v < N; v++ {
		if pi[v] < minPi {
			minPi = pi[v]
		}
		if v&1 == 1 && pi[v] < t.minOutPi {
			t.minOutPi = pi[v]
		}
	}
	g := t.minAdjC
	if t.minDefOff < g {
		g = t.minDefOff
	}
	if fb := float64(t.L); fb < g {
		g = fb
	}
	t.fuseG = g + 2*minPi
	t.bestDefOut, t.bestDefOutArg = otUnreached, -1 // min def(i)+pi over tree out-nodes
	t.bestPiIn, t.bestPiInArg = otUnreached, -1     // min pi over tree in-nodes
	t.bestPiOut, t.bestPiOutArg = otUnreached, -1   // min pi over tree out-nodes
	L := float64(t.L)

	total := 0.0
	t.join(1) // Prim starts at out_0, as the dense oneTree starts at node 1
	for count := 1; count < N-1; count++ {
		// Candidate 1: best explicit offer; candidates 2-4: the channel
		// offers into their statically best receivers.
		var bestVal = otUnreached
		var bestNode, bestPar = -1, -1
		var inArg, outDefArg, outPiArg = -1, -1, -1
		for t.lockH.n > 0 {
			top := t.lockH.ents[0]
			v := int(top.node)
			if t.inTree[v] || top.key > t.key[v] {
				t.lockH.pop()
				continue
			}
			bestVal, bestNode, bestPar = top.key, v, t.par[v]
			break
		}
		for t.excH.n > 0 {
			top := t.excH.ents[0]
			v := int(top.node)
			if t.inTree[v] || top.key > t.key[v] {
				t.excH.pop()
				continue
			}
			if val := top.key; val < bestVal || (val == bestVal && v < bestNode) {
				bestVal, bestNode, bestPar = val, v, t.par[v]
			}
			break
		}
		for inHead < len(t.inByPi.nodes) && t.inTree[t.inByPi.nodes[inHead]] {
			inHead++
		}
		if inHead < len(t.inByPi.nodes) {
			inArg = int(t.inByPi.nodes[inHead])
		}
		for outDefHead < len(t.outByDefPi.nodes) && t.inTree[t.outByDefPi.nodes[outDefHead]] {
			outDefHead++
		}
		if outDefHead < len(t.outByDefPi.nodes) {
			outDefArg = int(t.outByDefPi.nodes[outDefHead])
		}
		// Candidate 2: default/forbidden edge into the min-pi in-node.
		if inArg >= 0 {
			ch, par := t.bestDefOut, t.bestDefOutArg
			if fb := L + t.bestPiIn; fb < ch {
				ch, par = fb, t.bestPiInArg
			}
			if ch < otUnreached {
				if val := ch + pi[inArg]; val < bestVal || (val == bestVal && inArg < bestNode) {
					bestVal, bestNode, bestPar = val, inArg, par
				}
			}
		}
		// Candidate 3: default edge into the min-(def+pi) out-node.
		if outDefArg >= 0 && t.bestPiIn < otUnreached {
			if val := t.defOff[outDefArg] + pi[outDefArg] + t.bestPiIn; val < bestVal || (val == bestVal && outDefArg < bestNode) {
				bestVal, bestNode, bestPar = val, outDefArg, t.bestPiInArg
			}
		}
		// Candidate 4: forbidden edge into the min-pi out-node. Its
		// receiver has no maintained order (that was a third per-iterate
		// sort); the candidate costs at least L + bestPiOut + minOutPi,
		// which loses to bestVal on anything but degenerate instances,
		// so the exact receiver — the same (pi, node)-minimum an order's
		// head would provide — is only scanned for when the bound does
		// not already decide.
		if t.bestPiOut < otUnreached {
			if lb := L + t.bestPiOut + t.minOutPi; lb <= bestVal {
				for x := 1; x < N; x += 2 {
					if !t.inTree[x] && (outPiArg < 0 || pi[x] < pi[outPiArg]) {
						outPiArg = x
					}
				}
				if outPiArg >= 0 {
					if val := L + t.bestPiOut + pi[outPiArg]; val < bestVal || (val == bestVal && outPiArg < bestNode) {
						bestVal, bestNode, bestPar = val, outPiArg, t.bestPiOutArg
					}
				}
			}
		}
		if bestNode < 0 {
			break
		}
		total += bestVal
		t.deg[bestNode]++
		t.deg[bestPar]++
		t.join(bestNode)
		// A locked offer recorded by that join is strictly below every
		// candidate the next selection could see (see fuseG), so the
		// true loop would select it next with no tie to break — join the
		// partner now and skip the whole selection pass. The joined
		// partner is an in- or out-node whose own partner is in the
		// tree, so the fused join cannot record another fusion.
		if w := t.fused; w >= 0 && count < N-2 {
			t.fused = -1
			count++
			total += t.key[w]
			t.deg[w]++
			t.deg[t.par[w]]++
			t.join(w)
		}
	}

	// Two cheapest edges incident to node 0 (in_0), at true costs.
	best1, best2 := otUnreached, otUnreached
	arg1, arg2 := -1, -1
	for b := 1; b < N; b++ {
		var c float64
		switch {
		case b == 1:
			c = -L // locked partner out_0
		case b&1 == 1:
			c = float64(t.sp.At(b/2, 0)) // directed edge out_i -> in_0
		default:
			c = L // forbidden in/in edge
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
