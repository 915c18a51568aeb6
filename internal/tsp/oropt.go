package tsp

// Or-opt relocation: the second local-search move family. A contiguous
// block of 1 to 3 cities s..e is cut out (reconnecting pred(s) -> succ(e))
// and reinserted between a candidate city c and its successor, turning
//
//	p s..e q .. c d ..   into   p q .. c s..e d ..
//
// (and symmetrically when c precedes p). Like the 3-opt segment exchange,
// the move is reversal-free — on the locked symmetric transformation it
// is the same three-edge exchange, just found from the block's
// perspective instead of the cut edge's — so it stays within the move set
// the paper's transformation admits. What it adds is reach: the 3-opt
// search only examines moves whose first reconnection edge (a, d) is on
// a's candidate list, while the Or-opt scan requires the insertion edge
// (c, s) to be on s's candidate list. Short blocks that would profit from
// moving next to a far-away candidate are found here and missed there.
//
// The scan is candidate-list bounded and first-improvement, with the
// standard positive-partial-gain restriction: candidates c are taken from
// nb.In[s] in increasing cost order and the scan breaks as soon as
// cost(c,s) >= cost(p,s) (the sorted-list analogue of the 3-opt g1
// break). Accepted moves wake the six touched endpoints in the shared
// queue, so the families interleave until the tour is locally optimal
// under both.
//
// Most of a candidate's test does not depend on the block length l:
// the prefix of nb.In[s] with g1 = cost(p,s) - cost(c,s) > 0 (cost(c,s)
// comes from nb.InCost), s's position relative to c, d = succ(c) and
// cost(c,d). orOptFrom computes these once per s into a candidate array
// and then runs the l = 1..3 loop over it, testing pairs in the same
// (l, c) order as a scan that recomputed everything per l, so the first
// improvement it applies is the same move. The array leaves out c = p,
// which fails for every l. Only the block's entry edge cost(e,d), its
// exit gain and the bound that the block fit before c vary with l.
//
// MoveStats.OrTried still counts one per (l, candidate) pair tested
// against the gain, the g1 break included, exactly as the per-l scan
// counted them, so tsp.move_accept_ratio stays comparable.
//
// Gating: Or-opt changes tours (it strictly improves a 3-opt local
// optimum or leaves it unchanged), so unlike the phase-1 two-level swap
// it is NOT bit-identical to the historical kernel. ThreeOpt.Optimize
// always runs it; there is no switch. It is quality-gated by
// quality_test.go (HK-gap mean <= 0.3%) and the check/vet invariants.
// The tests that pin the 3-opt family alone against the frozen array
// kernel drive improveFrom by itself; see DESIGN.md section 12.

// orCand is one insertion point for blocks starting at s: the edge
// (c, d) with d = succ(c), everything about it that no block length
// changes.
type orCand struct {
	c, d int
	idx  int  // position of c in nb.In[s]
	npS  int  // position of s relative to c
	gain Cost // cost(p,s) - cost(c,s) + cost(c,d)
}

// orOptFrom searches for an improving relocation of a block of 1..3
// cities starting at s, applying the first improvement found.
func (o *ThreeOpt) orOptFrom(s int) bool {
	n := o.n
	p := o.tl.Pred(s)
	base := o.m.At(p, s)
	o.tl.Rank(s) // validate ranks once; the scan uses rank/NpFrom
	in, inCost := o.nb.In[s], o.nb.InCost[s]
	tried := len(in) // pairs each block length tests, the g1 break included
	cands := o.orCands[:0]
	for i, c := range in {
		g1 := base - inCost[i]
		if g1 <= 0 {
			tried = i + 1
			break // nb.In[s] is sorted by cost
		}
		// npS = 0 is c = p, which would re-create the removed edge.
		npS := o.tl.NpFrom(o.tl.rank(c), s)
		if npS < 1 {
			continue
		}
		d := o.tl.Succ(c)
		gain := g1 + o.m.At(c, d)
		cands = append(cands, orCand{c: c, d: d, idx: i, npS: npS, gain: gain})
	}
	o.orCands = cands
	e := s
	for l := 1; l <= 3 && l <= n-2; l++ {
		if l > 1 {
			e = o.tl.Succ(e)
			if e == p {
				break // block would swallow everything but p
			}
		}
		q := o.tl.Succ(e)
		// Gain of closing the gap p->q and of the block's old exit edge;
		// constant across candidates for this block length. At(p,q) reads
		// the diagonal only in degenerate all-block cases that the npS
		// bound rejects below, where the scan applies nothing.
		qGain := o.m.At(e, q) - o.m.At(p, q)
		for _, k := range cands {
			// The block must sit at positions [1, n-2] relative to c
			// without wrapping past it.
			if k.npS > n-1-l {
				continue
			}
			g2 := k.gain - o.m.At(e, k.d)
			if g2 <= 0 {
				continue
			}
			total := g2 + qGain
			if total <= 0 {
				continue
			}
			o.stats.OrTried += int64(k.idx + 1)
			o.tl.Splice(k.c, s, e)
			o.c -= total
			o.stats.OrAccepted++
			o.recordSplice(l)
			o.wake(p, q, s, e, k.c, k.d)
			return true
		}
		o.stats.OrTried += int64(tried)
	}
	return false
}
