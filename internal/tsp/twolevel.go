package tsp

import "math"

// TwoLevel is a two-level doubly-linked representation of a directed tour,
// after the "two-level doubly linked list" of Johnson and McGeoch's TSP
// local-search studies. Cities live in a circular doubly-linked list and
// are grouped into ~√n contiguous segments; each city records its segment
// and offset within it, and each segment records its cumulative start
// position in the tour. The representation is specialized to the
// reversal-free move set of this package (segments are never flipped, so
// no orientation bits are needed) and supports exactly the operations the
// 3-opt/Or-opt kernels are hot on:
//
//   - Succ/Pred: one array load, O(1), no modular arithmetic;
//   - Rank and the relative-order query NpFrom: O(1) against prefix sums
//     that are rebuilt lazily in O(√n) after a splice;
//   - Splice, the reversal-free segment exchange (relocate the contiguous
//     block d..e to immediately after a): three segment splits of O(√n)
//     each plus an O(1) relink of the segment ring.
//
// Splits grow the segment count by at most three per splice; when the
// count reaches twice its initial value the structure is rebuilt from
// scratch at the target segment length, so splice stays O(√n) amortized.
// The array tour this replaces paid Θ(n) per applied move to rebuild the
// tour and its position index (see ThreeOpt); DESIGN.md section 12 has
// the asymptotics and the bit-identity argument.
//
// All storage is int32-indexed: four byte entries keep the whole structure
// under one L2 way for the multi-thousand-block instances this exists for.
type TwoLevel struct {
	n    int
	next []int32 // next[c] = successor city of c
	prev []int32 // prev[c] = predecessor city of c
	seg  []int32 // seg[c] = id of the segment containing c
	off  []int32 // off[c] = offset of c within its segment

	segNext  []int32 // segment ring, tour order
	segPrev  []int32
	segHead  []int32 // first city of the segment
	segLen   []int32
	segStart []int32 // tour position of segHead, valid while ranksOK

	nseg    int   // live segments (ids 0..nseg-1)
	first   int32 // city at tour position 0 (tracks the last splice anchor)
	target  int32 // rebuild segment length, ~√n
	ranksOK bool

	scratch Tour // rebuild buffer, allocated on first use
}

// Init rebuilds the structure over tour t (which is copied; t is not
// retained), reusing existing storage when the city count is unchanged.
// The zero TwoLevel is ready for Init. The city at t[0] becomes the first
// city, where AppendTour starts.
func (tl *TwoLevel) Init(t Tour) {
	n := len(t)
	if n == 0 {
		panic("tsp: TwoLevel.Init: empty tour")
	}
	if tl.n != n {
		tl.n = n
		tl.next = make([]int32, n)
		tl.prev = make([]int32, n)
		tl.seg = make([]int32, n)
		tl.off = make([]int32, n)
		tl.target = int32(math.Sqrt(float64(n)))
		if tl.target < 1 {
			tl.target = 1
		}
		initSegs := (n + int(tl.target) - 1) / int(tl.target)
		segCap := 2*initSegs + 8
		tl.segNext = make([]int32, segCap)
		tl.segPrev = make([]int32, segCap)
		tl.segHead = make([]int32, segCap)
		tl.segLen = make([]int32, segCap)
		tl.segStart = make([]int32, segCap)
	}
	for i, c := range t {
		tl.next[c] = int32(t[(i+1)%n])
		tl.prev[c] = int32(t[(i-1+n)%n])
	}
	tl.first = int32(t[0])
	tl.initSegments(t)
}

// initSegments carves tour t into segments of the target length and
// resets the segment ring. Ranks are valid afterwards.
func (tl *TwoLevel) initSegments(t Tour) {
	n, target := tl.n, int(tl.target)
	nseg := 0
	for i := 0; i < n; i += target {
		end := i + target
		if end > n {
			end = n
		}
		id := int32(nseg)
		tl.segHead[id] = int32(t[i])
		tl.segLen[id] = int32(end - i)
		tl.segStart[id] = int32(i)
		for j := i; j < end; j++ {
			tl.seg[t[j]] = id
			tl.off[t[j]] = int32(j - i)
		}
		nseg++
	}
	for id := 0; id < nseg; id++ {
		tl.segNext[id] = int32((id + 1) % nseg)
		tl.segPrev[id] = int32((id - 1 + nseg) % nseg)
	}
	tl.nseg = nseg
	tl.ranksOK = true
}

// Len returns the number of cities.
func (tl *TwoLevel) Len() int { return tl.n }

// Succ returns the successor of city x in the tour.
func (tl *TwoLevel) Succ(x int) int { return int(tl.next[x]) }

// Pred returns the predecessor of city x in the tour.
func (tl *TwoLevel) Pred(x int) int { return int(tl.prev[x]) }

// Rank returns the position of city x in an unspecified rotation of the
// tour: successors differ by +1 mod n, and ranks cover 0..n-1, but the
// city at rank 0 is an implementation detail (the head of some segment,
// not necessarily the first city). Only rank differences mod n carry
// meaning — NpFrom consumes them — and only between two Rank/NpFrom
// calls with no intervening Splice. Rank revalidates the prefix sums
// (O(√n)) if a splice invalidated them.
func (tl *TwoLevel) Rank(x int) int {
	if !tl.ranksOK {
		tl.rebuildRanks()
	}
	return tl.rank(x)
}

// rank is Rank without the validity check, for use after a Rank call in
// the same epoch.
func (tl *TwoLevel) rank(x int) int {
	return int(tl.segStart[tl.seg[x]] + tl.off[x])
}

// NpFrom returns the position of x relative to (and excluding) the
// anchor a whose rank is ra: Succ(a) is at 0, Pred(a) at n-2 and a itself
// at n-1. It matches the pos-array arithmetic of the array kernel exactly.
// The search loops call Rank once per anchor and NpFrom per candidate;
// the caller must have obtained ra from Rank with no Splice in between.
func (tl *TwoLevel) NpFrom(ra, x int) int {
	d := tl.rank(x) - ra - 1
	if d < 0 {
		d += tl.n
	}
	return d
}

// rebuildRanks recomputes the segments' cumulative start positions by
// walking the segment ring from the first city's segment. O(number of
// segments).
func (tl *TwoLevel) rebuildRanks() {
	home := tl.seg[tl.first]
	// The first city is not necessarily its segment's head (a splice
	// anchor lands at a segment tail), so the rank-0 city is home's head;
	// ranks only feed differences mod n (see Rank), so any rotation
	// anchor is as good as another.
	s := home
	pos := int32(0)
	for {
		tl.segStart[s] = pos
		pos += tl.segLen[s]
		s = tl.segNext[s]
		if s == home {
			break
		}
	}
	tl.ranksOK = true
}

// Splice performs the reversal-free segment exchange: the contiguous
// block d..e is relocated to immediately after a, turning the cycle
//
//	a b..c d..e f..a   into   a d..e b..c f..a
//
// where b = Succ(a), c = Pred(d), f = Succ(e). The caller must ensure the
// move is proper, exactly the feasibility conditions of the 3-opt search:
// 1 <= NpFrom(Rank(a),d) <= NpFrom(Rank(a),e) <= n-2 with d..e
// contiguous (equivalently: the block d..e contains neither a nor b).
// a becomes the first city: tracking the anchor reproduces the rotation
// of the array kernel this structure replaces, which rebuilt its tour
// starting at the anchor, so materialized tours are bit-identical
// between the two. Amortized O(√n).
func (tl *TwoLevel) Splice(a, d, e int) {
	if tl.nseg+3 > len(tl.segHead) {
		tl.rebuild()
	}
	b := tl.next[a]
	c := tl.prev[d]
	f := tl.next[e]

	// Align segment boundaries with the three cut points: after the
	// splits b, d and f head their segments, so a, c and e are tails and
	// the block d..e is a whole chain of segments.
	tl.split(b)
	tl.split(int32(d))
	tl.split(f)

	sa := tl.seg[a]
	sd := tl.seg[d]
	se := tl.seg[e]

	// Unlink the segment chain sd..se and reinsert it after sa.
	tl.segNext[tl.segPrev[sd]] = tl.segNext[se]
	tl.segPrev[tl.segNext[se]] = tl.segPrev[sd]
	after := tl.segNext[sa]
	tl.segNext[sa] = sd
	tl.segPrev[sd] = sa
	tl.segNext[se] = after
	tl.segPrev[after] = se

	// City-level relink: a->d, e->b, c->f.
	tl.next[a] = int32(d)
	tl.prev[d] = int32(a)
	tl.next[e] = b
	tl.prev[b] = int32(e)
	tl.next[c] = f
	tl.prev[f] = c

	tl.first = int32(a)
	tl.ranksOK = false
}

// split makes city x the head of a segment by cutting its segment in two
// before x. No-op when x already heads one. O(segment length).
func (tl *TwoLevel) split(x int32) {
	if tl.off[x] == 0 {
		return
	}
	s := tl.seg[x]
	id := int32(tl.nseg)
	tl.nseg++
	keep := tl.off[x]
	moved := tl.segLen[s] - keep
	tl.segHead[id] = x
	tl.segLen[id] = moved
	tl.segLen[s] = keep
	c := x
	for i := int32(0); i < moved; i++ {
		tl.seg[c] = id
		tl.off[c] = i
		c = tl.next[c]
	}
	// Ring-insert the new segment after its source.
	after := tl.segNext[s]
	tl.segNext[s] = id
	tl.segPrev[id] = s
	tl.segNext[id] = after
	tl.segPrev[after] = id
	// Ranks of the two halves are still consistent with segStart if it
	// was valid (start of the right half = start of s + keep).
	tl.segStart[id] = tl.segStart[s] + keep
}

// rebuild re-segments the structure at the target length, preserving the
// current tour and rotation. Called when splits have doubled the segment
// count; amortized over the >= initial-segment-count splices in between,
// its O(n) cost is O(√n) per splice.
func (tl *TwoLevel) rebuild() {
	if cap(tl.scratch) < tl.n {
		tl.scratch = make(Tour, 0, tl.n)
	}
	tl.scratch = tl.AppendTour(tl.scratch)
	tl.initSegments(tl.scratch)
}

// AppendTour appends the tour to dst[:0] in order, starting at the first
// city (Init's t[0] or the latest Splice anchor), and returns it. With a
// dst of capacity n it allocates nothing.
func (tl *TwoLevel) AppendTour(dst Tour) Tour {
	dst = dst[:0]
	c := tl.first
	for i := 0; i < tl.n; i++ {
		dst = append(dst, int(c))
		c = tl.next[c]
	}
	return dst
}
