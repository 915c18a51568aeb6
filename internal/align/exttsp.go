package align

// The ExtTSP chain-merging aligner: the BOLT heuristic of Newell &
// Pupyrev (arXiv:1809.04676) adapted to this pipeline. Instead of
// minimizing exact control-penalty cycles (the DTSP reduction), it
// maximizes layout.ExtTSPScore — fall-throughs plus distance-decayed
// short forward/backward jumps — which models the I-cache locality the
// control-penalty objective deliberately ignores. The algorithm is
// greedy chain merging: seed chains on mutually-hottest fall-through
// edges, then repeatedly apply the merge (over concatenations and
// split-point insertions) with the best score gain until no merge
// improves the objective, and concatenate the leftover chains by
// execution density.
//
// Everything here is deterministic by construction: arcs are collected
// in block/successor order, candidate merges live in a heap with a
// total tie-break order, and no map is ever ranged over.

import (
	"container/heap"
	"context"
	"sort"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/obs"
)

// extSplitCap bounds the chain length up to which split-point
// insertions are evaluated during a merge. Chains longer than this are
// only concatenated whole — scanning every split of a 10k-block chain
// for every candidate pair would make merging quadratic without
// measurably improving the layouts of real CFGs (BOLT applies the same
// kind of cap).
const extSplitCap = 64

// ExtTSP is the chain-merging aligner over the ExtTSP objective.
type ExtTSP struct {
	// Params is the objective; the zero value selects
	// layout.DefaultExtTSPParams().
	Params layout.ExtTSPParams
}

// Name implements Aligner.
func (*ExtTSP) Name() string { return "exttsp" }

// params resolves the configured objective parameters.
func (e *ExtTSP) params() layout.ExtTSPParams {
	if e.Params == (layout.ExtTSPParams{}) {
		return layout.DefaultExtTSPParams()
	}
	return e.Params
}

// AlignFunc implements Aligner. A cancelled ctx stops the merge loop at
// its next merge boundary; the chains built so far are concatenated into
// a valid (merely weaker) order. Under a traced run the function gets an
// "align.func" span (tagged algorithm=exttsp) carrying the order's
// ExtTSP score, control penalty and merge count.
func (e *ExtTSP) AlignFunc(ctx context.Context, fn *Func) FuncResult {
	f, fp := fn.IR, fn.Prof
	n := len(f.Blocks)
	sp := fn.Obs.Child("align.func",
		obs.String("func", f.Name), obs.Int("cities", int64(n)),
		obs.String("algorithm", "exttsp"))
	if n == 1 {
		sp.End(obs.Int("cost", 0), obs.Float("score", 0))
		return FuncResult{Order: []int{0}}
	}
	s := newExtSolver(f, fp, e.params())
	merges, truncated := s.run(ctx)
	order := s.finalOrder()
	if sp != nil {
		cost := layout.Penalty(f, layout.Finalize(f, fp, order, fn.Model), fp, fn.Model)
		sp.End(obs.Int("cost", int64(cost)), obs.Float("score", layout.ExtTSPScore(f, fp, order, e.params())),
			obs.Int("merges", int64(merges)), obs.Bool("truncated", truncated))
	}
	return FuncResult{Order: order, Truncated: truncated}
}

// extArc is one merged CFG arc (duplicate successors summed,
// self-loops dropped — a self-loop's score is the same in every
// layout, so it cannot influence a merge decision).
type extArc struct {
	to int
	w  int64
}

// extChain is one chain of blocks being grown by merging.
type extChain struct {
	// id is the smallest block id the chain has ever absorbed — stable,
	// unique among live chains, and the deterministic tie-breaker.
	id     int
	blocks []int
	bytes  int
	heat   int64 // Σ block execution counts, for the density ordering
	ver    int32 // bumped on every merge; stale heap entries self-identify
	dead   bool
}

// extSolver is the per-function chain-merging state.
type extSolver struct {
	p     layout.ExtTSPParams
	sizes []int // block byte sizes (layout.BlockBytes)

	out    [][]extArc // merged out-arcs per block, sorted by target
	inSrcs [][]int    // unique arc sources per block, sorted

	chains  []*extChain
	byID    []*extChain // live chain by id (nil once dead)
	chainOf []*extChain // owning chain per block
	pos     []int       // byte offset of each block within its chain
	idx     []int       // index of each block within its chain's blocks

	cands extCandHeap

	// Scratch for gain evaluation, reused across pairs.
	cross   []crossArc
	intraS  []crossArc
	intraL  []crossArc
	nbrs    []int
	pairIDs []int
}

// crossArc is a gain-relevant arc with both endpoints resolved.
type crossArc struct {
	from, to int
	w        int64
}

// Merge arrangement kinds, enumerated in evaluation order. The split
// kinds keep the split chain's first block first, so any arrangement is
// entry-safe as long as the entry chain leads it.
const (
	extConcatAB = uint8(iota) // A then B
	extConcatBA               // B then A
	extSplitA                 // A[:i], B, A[i:]
	extSplitB                 // B[:j], A, B[j:]
)

// extCand is one candidate merge: the best arrangement for a chain
// pair at the versions it was evaluated against.
type extCand struct {
	gain   float64
	a, b   *extChain // a.id < b.id
	va, vb int32
	kind   uint8
	idx    int
}

// extCandHeap is a deterministic max-heap of merge candidates: best
// gain first, ties broken by chain ids, then arrangement. The order is
// total, so the pop sequence is a pure function of the push sequence.
type extCandHeap []extCand

func (h extCandHeap) Len() int { return len(h) }

//balignlint:ignore test-only: heap.Interface method, called through container/heap
func (h extCandHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].a.id != h[j].a.id {
		return h[i].a.id < h[j].a.id
	}
	if h[i].b.id != h[j].b.id {
		return h[i].b.id < h[j].b.id
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].idx < h[j].idx
}

//balignlint:ignore test-only: heap.Interface method, called through container/heap
func (h extCandHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *extCandHeap) Push(x any)   { *h = append(*h, x.(extCand)) }
func (h *extCandHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h extCandHeap) valid(c extCand) bool {
	return !c.a.dead && !c.b.dead && c.a.ver == c.va && c.b.ver == c.vb
}

// newExtSolver builds the arc structure and seed chains for one
// function.
func newExtSolver(f *ir.Func, fp *interp.FuncProfile, p layout.ExtTSPParams) *extSolver {
	n := len(f.Blocks)
	s := &extSolver{
		p:       p,
		sizes:   layout.BlockBytes(f),
		out:     make([][]extArc, n),
		inSrcs:  make([][]int, n),
		chainOf: make([]*extChain, n),
		byID:    make([]*extChain, n),
		pos:     make([]int, n),
		idx:     make([]int, n),
	}
	// Merge each block's successors: sort by target, sum duplicates,
	// drop self-loops.
	var scratch []extArc
	for b, blk := range f.Blocks {
		scratch = scratch[:0]
		for si, t := range blk.Term.Succs {
			if t == b {
				continue
			}
			scratch = append(scratch, extArc{to: t, w: fp.EdgeCounts[b][si]})
		}
		sort.Slice(scratch, func(i, j int) bool { return scratch[i].to < scratch[j].to })
		arcs := make([]extArc, 0, len(scratch))
		for _, a := range scratch {
			if len(arcs) > 0 && arcs[len(arcs)-1].to == a.to {
				arcs[len(arcs)-1].w += a.w
				continue
			}
			arcs = append(arcs, a)
		}
		s.out[b] = arcs
		for _, a := range arcs {
			s.inSrcs[a.to] = append(s.inSrcs[a.to], b)
		}
	}
	// inSrcs are appended in source order and sources are visited in
	// block order, so each list is already sorted and unique.
	s.seedChains(f, fp)
	return s
}

// seedChains links mutually-hottest fall-through edges into initial
// chains (the "hot fall-through seeding" of the BOLT heuristic): an arc
// u→v seeds u and v adjacent when it is both u's hottest out-arc and
// v's hottest in-arc. Everything the seeding leaves apart, the merge
// loop can still join — seeding only fast-paths the merges whose gain
// is beyond doubt.
func (s *extSolver) seedChains(f *ir.Func, fp *interp.FuncProfile) {
	n := len(f.Blocks)
	maxOut := make([]int64, n)
	maxIn := make([]int64, n)
	for b := range s.out {
		for _, a := range s.out[b] {
			if a.w > maxOut[b] {
				maxOut[b] = a.w
			}
			if a.w > maxIn[a.to] {
				maxIn[a.to] = a.w
			}
		}
	}
	var hot []crossArc
	for b := range s.out {
		for _, a := range s.out[b] {
			// Never seed into the entry: block 0 must stay first.
			if a.w > 0 && a.to != 0 && a.w == maxOut[b] && a.w == maxIn[a.to] {
				hot = append(hot, crossArc{from: b, to: a.to, w: a.w})
			}
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].w != hot[j].w {
			return hot[i].w > hot[j].w
		}
		if hot[i].from != hot[j].from {
			return hot[i].from < hot[j].from
		}
		return hot[i].to < hot[j].to
	})
	next := make([]int, n)
	prev := make([]int, n)
	end := make([]int, n)
	for i := range next {
		next[i], prev[i], end[i] = -1, -1, i
	}
	for _, e := range hot {
		if next[e.from] != -1 || prev[e.to] != -1 || end[e.from] == e.to {
			continue
		}
		next[e.from] = e.to
		prev[e.to] = e.from
		head, tail := end[e.from], end[e.to]
		end[head], end[tail] = tail, head
	}
	for h := 0; h < n; h++ {
		if prev[h] != -1 {
			continue
		}
		c := &extChain{id: h}
		for b := h; b != -1; b = next[b] {
			if b < c.id {
				c.id = b
			}
			s.chainOf[b] = c
			s.pos[b] = c.bytes
			s.idx[b] = len(c.blocks)
			c.blocks = append(c.blocks, b)
			c.bytes += s.sizes[b]
			c.heat += fp.BlockCounts[b]
		}
		s.chains = append(s.chains, c)
		s.byID[c.id] = c
	}
}

// run executes the merge loop: evaluate every arc-connected chain pair,
// keep the candidates in the heap, and apply the best positive-gain
// merge until none remains (or ctx cancels). Returns the merge count
// and whether the loop was truncated.
func (s *extSolver) run(ctx context.Context) (merges int, truncated bool) {
	// Initial candidates: every pair of distinct chains connected by at
	// least one arc, in id order.
	s.pairIDs = s.pairIDs[:0]
	for b := range s.out {
		ca := s.chainOf[b]
		for _, a := range s.out[b] {
			cb := s.chainOf[a.to]
			if ca == cb {
				continue
			}
			lo, hi := ca.id, cb.id
			if lo > hi {
				lo, hi = hi, lo
			}
			s.pairIDs = append(s.pairIDs, lo*len(s.out)+hi)
		}
	}
	sort.Ints(s.pairIDs)
	last := -1
	for _, key := range s.pairIDs {
		if key == last {
			continue
		}
		last = key
		s.pushPair(s.byID[key/len(s.out)], s.byID[key%len(s.out)])
	}

	for len(s.cands) > 0 {
		if merges&63 == 0 && ctx != nil && ctx.Err() != nil {
			return merges, true
		}
		c := heap.Pop(&s.cands).(extCand)
		if !s.cands.valid(c) {
			continue
		}
		s.merge(c)
		merges++
	}
	return merges, false
}

// pushPair evaluates the best merge of chains a and b and, when its
// gain is positive, pushes it onto the candidate heap.
func (s *extSolver) pushPair(a, b *extChain) {
	if a.id > b.id {
		a, b = b, a
	}
	gain, kind, idx, ok := s.bestArrangement(a, b)
	if !ok || gain <= 0 {
		return
	}
	heap.Push(&s.cands, extCand{gain: gain, a: a, b: b, va: a.ver, vb: b.ver, kind: kind, idx: idx})
}

// collectPair gathers the arcs a merge of (a, b) can re-score: the
// cross arcs between the chains (both directions), the arcs internal to
// each chain short enough to be split. Only the smaller chain's blocks
// are scanned for the cross set — arcs from the larger chain are found
// through the smaller chain's in-arc lists — so evaluating a merge
// against a huge chain never walks the huge chain.
func (s *extSolver) collectPair(a, b *extChain) {
	small, large := a, b
	if len(large.blocks) < len(small.blocks) {
		small, large = large, small
	}
	s.cross = s.cross[:0]
	s.intraS = s.intraS[:0]
	s.intraL = s.intraL[:0]
	for _, u := range small.blocks {
		for _, arc := range s.out[u] {
			switch s.chainOf[arc.to] {
			case small:
				if arc.w > 0 {
					s.intraS = append(s.intraS, crossArc{from: u, to: arc.to, w: arc.w})
				}
			case large:
				if arc.w > 0 {
					s.cross = append(s.cross, crossArc{from: u, to: arc.to, w: arc.w})
				}
			}
		}
		for _, src := range s.inSrcs[u] {
			if s.chainOf[src] != large {
				continue
			}
			if w := s.arcWeight(src, u); w > 0 {
				s.cross = append(s.cross, crossArc{from: src, to: u, w: w})
			}
		}
	}
	if len(large.blocks) <= extSplitCap {
		for _, u := range large.blocks {
			for _, arc := range s.out[u] {
				if s.chainOf[arc.to] == large && arc.w > 0 {
					s.intraL = append(s.intraL, crossArc{from: u, to: arc.to, w: arc.w})
				}
			}
		}
	}
	// Re-home the intra sets onto (a, b) naming: intraS/intraL are
	// small/large; callers want intraA/intraB.
	if small != a {
		s.intraS, s.intraL = s.intraL, s.intraS
	}
}

// arcWeight looks up the merged weight of arc from→to (0 when absent).
func (s *extSolver) arcWeight(from, to int) int64 {
	arcs := s.out[from]
	lo, hi := 0, len(arcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if arcs[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(arcs) && arcs[lo].to == to {
		return arcs[lo].w
	}
	return 0
}

// bestArrangement evaluates every allowed arrangement of merging a and
// b and returns the best gain. Arrangements are scored as deltas
// against the two chains kept apart: intra-chain arcs that keep their
// relative offsets contribute nothing, so only cross arcs (previously
// scoring zero — different chains are "infinitely far" apart until
// merged) and split-crossing intra arcs are evaluated.
func (s *extSolver) bestArrangement(a, b *extChain) (gain float64, kind uint8, idx int, ok bool) {
	s.collectPair(a, b)
	if len(s.cross) == 0 {
		return 0, 0, 0, false
	}
	// After collectPair, intraS holds a's internal arcs and intraL b's
	// (only populated when the owner is short enough to split).
	intraA, intraB := s.intraS, s.intraL
	entryA := a.blocks[0] == 0
	entryB := b.blocks[0] == 0

	consider := func(g float64, k uint8, i int) {
		if !ok || g > gain {
			gain, kind, idx, ok = g, k, i, true
		}
	}
	if !entryB {
		consider(s.concatGain(a, b, 0, a.bytes), extConcatAB, 0)
	}
	if !entryA {
		consider(s.concatGain(a, b, b.bytes, 0), extConcatBA, 0)
	}
	if !entryB && len(a.blocks) >= 2 && len(a.blocks) <= extSplitCap {
		for i := 1; i < len(a.blocks); i++ {
			consider(s.splitGain(a, b, intraA, i), extSplitA, i)
		}
	}
	if !entryA && len(b.blocks) >= 2 && len(b.blocks) <= extSplitCap {
		for j := 1; j < len(b.blocks); j++ {
			consider(s.splitGain(b, a, intraB, j), extSplitB, j)
		}
	}
	return gain, kind, idx, ok
}

// concatGain scores laying the chains whole at the given byte offsets
// (offA for a's blocks, offB for b's): only the cross arcs change.
func (s *extSolver) concatGain(a, b *extChain, offA, offB int) float64 {
	var g float64
	for _, arc := range s.cross {
		srcOff, dstOff := offA, offB
		if s.chainOf[arc.from] == b {
			srcOff, dstOff = offB, offA
		}
		srcEnd := srcOff + s.pos[arc.from] + s.sizes[arc.from]
		g += layout.ArcScore(arc.w, srcEnd, dstOff+s.pos[arc.to], s.p)
	}
	return g
}

// splitGain scores the arrangement x[:i], y, x[i:]: x's blocks past the
// split shift by y's byte size, y lands at the split offset. Cross arcs
// gain their new score; x's internal arcs that span the split move from
// their old distance to a stretched one.
func (s *extSolver) splitGain(x, y *extChain, intraX []crossArc, i int) float64 {
	splitAt := s.pos[x.blocks[i]]
	xOff := func(b int) int {
		if s.idx[b] < i {
			return s.pos[b]
		}
		return s.pos[b] + y.bytes
	}
	var g float64
	for _, arc := range s.cross {
		var srcEnd, dst int
		if s.chainOf[arc.from] == x {
			srcEnd = xOff(arc.from) + s.sizes[arc.from]
			dst = splitAt + s.pos[arc.to]
		} else {
			srcEnd = splitAt + s.pos[arc.from] + s.sizes[arc.from]
			dst = xOff(arc.to)
		}
		g += layout.ArcScore(arc.w, srcEnd, dst, s.p)
	}
	for _, arc := range intraX {
		if (s.idx[arc.from] < i) == (s.idx[arc.to] < i) {
			continue // both sides of the split: relative offset unchanged
		}
		oldEnd := s.pos[arc.from] + s.sizes[arc.from]
		g += layout.ArcScore(arc.w, xOff(arc.from)+s.sizes[arc.from], xOff(arc.to), s.p) -
			layout.ArcScore(arc.w, oldEnd, s.pos[arc.to], s.p)
	}
	return g
}

// merge applies a validated candidate: rebuild the surviving chain's
// block sequence per the arrangement, retire the other chain, and
// re-evaluate every neighbor pair of the merged chain.
func (s *extSolver) merge(c extCand) {
	a, b := c.a, c.b
	merged := make([]int, 0, len(a.blocks)+len(b.blocks))
	switch c.kind {
	case extConcatAB:
		merged = append(append(merged, a.blocks...), b.blocks...)
	case extConcatBA:
		merged = append(append(merged, b.blocks...), a.blocks...)
	case extSplitA:
		merged = append(merged, a.blocks[:c.idx]...)
		merged = append(merged, b.blocks...)
		merged = append(merged, a.blocks[c.idx:]...)
	case extSplitB:
		merged = append(merged, b.blocks[:c.idx]...)
		merged = append(merged, a.blocks...)
		merged = append(merged, b.blocks[c.idx:]...)
	}
	// a (the lower id) survives; b dies.
	s.byID[b.id] = nil
	b.dead = true
	a.blocks = merged
	a.bytes += b.bytes
	a.heat += b.heat
	a.ver++
	off := 0
	for i, blk := range merged {
		s.chainOf[blk] = a
		s.pos[blk] = off
		s.idx[blk] = i
		off += s.sizes[blk]
	}

	// Neighbors of the merged chain, by id, deduplicated.
	s.nbrs = s.nbrs[:0]
	for _, u := range a.blocks {
		for _, arc := range s.out[u] {
			if cn := s.chainOf[arc.to]; cn != a {
				s.nbrs = append(s.nbrs, cn.id)
			}
		}
		for _, src := range s.inSrcs[u] {
			if cn := s.chainOf[src]; cn != a {
				s.nbrs = append(s.nbrs, cn.id)
			}
		}
	}
	sort.Ints(s.nbrs)
	last := -1
	for _, id := range s.nbrs {
		if id == last {
			continue
		}
		last = id
		s.pushPair(a, s.byID[id])
	}
}

// finalOrder concatenates the surviving chains: the entry chain first,
// the rest by descending execution density (heat per byte, the BOLT
// ordering that packs the hottest code tightest), ties to the lower
// chain id.
func (s *extSolver) finalOrder() []int {
	live := make([]*extChain, 0, len(s.chains))
	for _, c := range s.chains {
		if !c.dead {
			live = append(live, c)
		}
	}
	entry := s.chainOf[0]
	sort.Slice(live, func(i, j int) bool {
		ci, cj := live[i], live[j]
		if ci == entry || cj == entry {
			return ci == entry
		}
		// heat_i/bytes_i > heat_j/bytes_j, cross-multiplied (byte sizes
		// are positive).
		di := ci.heat * int64(cj.bytes)
		dj := cj.heat * int64(ci.bytes)
		if di != dj {
			return di > dj
		}
		return ci.id < cj.id
	})
	order := make([]int, 0, len(s.chainOf))
	for _, c := range live {
		order = append(order, c.blocks...)
	}
	return order
}
