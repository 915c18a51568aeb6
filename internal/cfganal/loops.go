package cfganal

import (
	"sort"

	"branchalign/internal/ir"
)

// Edge identifies one CFG edge by its source block and successor index
// (indexing ir.Terminator.Succs); To caches the target block.
type Edge struct {
	From    int
	SuccIdx int
	To      int
}

// LoopInfo describes one merged natural loop: all back edges sharing a
// header are folded into a single loop (textbook NaturalLoops reports
// them separately; frequency estimation and lints want the union).
type LoopInfo struct {
	// Header is the loop-header block.
	Header int
	// Blocks lists the loop body including the header, ascending.
	Blocks []int
	// Parent indexes the innermost enclosing loop in LoopNest.Loops
	// (-1 for a top-level loop).
	Parent int
	// Depth is the nesting depth (1 = outermost).
	Depth int
	// BackEdges are the latch edges t -> Header with Header dominating t.
	BackEdges []Edge
	// ExitEdges leave the loop: edges from a body block to a block
	// outside Blocks.
	ExitEdges []Edge
}

// Contains reports whether block b belongs to the loop body.
func (l *LoopInfo) Contains(b int) bool {
	i := sort.SearchInts(l.Blocks, b)
	return i < len(l.Blocks) && l.Blocks[i] == b
}

// LoopNest is the merged-loop structure of a function together with the
// edge classifications static profile estimation consumes.
type LoopNest struct {
	// Dom is the dominator tree the nest was built from.
	Dom *Dominators
	// RPONum maps a block to its reverse-postorder number (-1 for
	// unreachable blocks).
	RPONum []int
	// Loops holds the merged loops, sorted by descending depth (inner
	// loops first), ties by header. This is the processing order for
	// inner-to-outer frequency propagation.
	Loops []*LoopInfo
	// LoopOf maps each block to the index (in Loops) of its innermost
	// containing loop, -1 when the block is in no loop.
	LoopOf []int
	// Depth is the loop-nesting depth per block (0 = not in any loop).
	Depth []int
	// IrreducibleEdges lists the retreating edges that are not back
	// edges: an edge u -> v against the reverse postorder whose target
	// does not dominate its source. A non-empty list means the CFG has a
	// cycle that is not a natural loop (an irreducible region), which
	// structured loop-nest propagation cannot model exactly.
	IrreducibleEdges []Edge
}

// Irreducible reports whether the CFG contains a cycle that is not a
// natural loop.
func (n *LoopNest) Irreducible() bool { return len(n.IrreducibleEdges) > 0 }

// Retreating reports whether the edge from block b to block `to` runs
// against the reverse postorder (the target appears no later than the
// source). Back edges and irreducible-entry edges are retreating; every
// other edge between reachable blocks is forward. Edges touching
// unreachable blocks are never retreating.
func (n *LoopNest) Retreating(b, to int) bool {
	if n.RPONum[b] < 0 || n.RPONum[to] < 0 {
		return false
	}
	return n.RPONum[to] <= n.RPONum[b]
}

// AnalyzeLoops builds the merged loop nest of f: natural loops grouped
// by header, nesting links, per-block depth, back-edge and exit-edge
// classification, and irreducibility detection.
func AnalyzeLoops(f *ir.Func) *LoopNest {
	dom := ComputeDominators(f)
	n := len(f.Blocks)
	nest := &LoopNest{Dom: dom, RPONum: make([]int, n), LoopOf: make([]int, n), Depth: make([]int, n)}
	for b := range nest.RPONum {
		nest.RPONum[b] = -1
		nest.LoopOf[b] = -1
	}
	for i, b := range dom.rpo {
		nest.RPONum[b] = i
	}

	// Merge natural loops by header (headers are unique keys after the
	// merge, so body containment gives a tree).
	byHeader := map[int]*LoopInfo{}
	var headers []int
	for _, nl := range NaturalLoops(f, dom) {
		li := byHeader[nl.Header]
		if li == nil {
			li = &LoopInfo{Header: nl.Header, Parent: -1}
			byHeader[nl.Header] = li
			headers = append(headers, nl.Header)
		}
		li.Blocks = unionSorted(li.Blocks, nl.Blocks)
	}
	sort.Ints(headers)
	for _, h := range headers {
		nest.Loops = append(nest.Loops, byHeader[h])
	}

	// Back edges, exit edges and irreducible retreating edges.
	for b, blk := range f.Blocks {
		if nest.RPONum[b] < 0 {
			continue // unreachable source: classify nothing
		}
		for si, s := range blk.Term.Succs {
			if nest.Retreating(b, s) && !dom.Dominates(s, b) {
				nest.IrreducibleEdges = append(nest.IrreducibleEdges, Edge{From: b, SuccIdx: si, To: s})
			}
			if li := byHeader[s]; li != nil && dom.Dominates(s, b) {
				li.BackEdges = append(li.BackEdges, Edge{From: b, SuccIdx: si, To: s})
			}
		}
	}
	for _, li := range nest.Loops {
		for _, b := range li.Blocks {
			for si, s := range f.Blocks[b].Term.Succs {
				if !li.Contains(s) {
					li.ExitEdges = append(li.ExitEdges, Edge{From: b, SuccIdx: si, To: s})
				}
			}
		}
	}

	// Nesting depth: the parent of loop L is the smallest other loop
	// containing L's header. Depth counts parent links.
	parentOf := func(i int) int {
		li := nest.Loops[i]
		best := -1
		for j, lj := range nest.Loops {
			if i == j || lj.Header == li.Header || !lj.Contains(li.Header) {
				continue
			}
			if best == -1 || len(lj.Blocks) < len(nest.Loops[best].Blocks) {
				best = j
			}
		}
		return best
	}
	for i, li := range nest.Loops {
		li.Parent = parentOf(i)
	}
	for _, li := range nest.Loops {
		d := 1
		for p := li.Parent; p != -1; p = nest.Loops[p].Parent {
			d++
		}
		li.Depth = d
	}

	// Inner-to-outer processing order; ties by header keep it
	// deterministic. Parent indices and LoopOf are rebuilt against the
	// sorted slice.
	sort.SliceStable(nest.Loops, func(i, j int) bool {
		if nest.Loops[i].Depth != nest.Loops[j].Depth {
			return nest.Loops[i].Depth > nest.Loops[j].Depth
		}
		return nest.Loops[i].Header < nest.Loops[j].Header
	})
	for i, li := range nest.Loops {
		li.Parent = parentOf(i)
	}
	for i, li := range nest.Loops {
		for _, b := range li.Blocks {
			nest.Depth[b]++
			if nest.LoopOf[b] == -1 || nest.Loops[nest.LoopOf[b]].Depth < li.Depth {
				nest.LoopOf[b] = i
			}
		}
	}
	return nest
}

// unionSorted merges two ascending int slices without duplicates.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
