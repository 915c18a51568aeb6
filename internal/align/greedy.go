package align

import (
	"context"
	"sort"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
)

// PettisHansen is the greedy bottom-up aligner the paper compares
// against: consider CFG edges in decreasing frequency order; lay two
// blocks consecutively when the head has no layout successor yet, the
// tail has no layout predecessor yet, and joining them does not close a
// cycle; finally concatenate the resulting chains, entry chain first.
type PettisHansen struct{}

// Name implements Aligner.
func (PettisHansen) Name() string { return "greedy" }

// AlignFunc implements Aligner.
func (PettisHansen) AlignFunc(_ context.Context, fn *Func) FuncResult {
	return FuncResult{Order: chainAndOrder(fn.IR, fn.Prof, frequencyWeights(fn.IR, fn.Prof))}
}

// cfgEdge is a weighted candidate for consecutive placement.
type cfgEdge struct {
	from, to int
	weight   int64
}

// frequencyWeights collects the CFG edges usable for fall-through
// placement, weighted by execution frequency (the classic greedy
// priority). Self-loops and edges into the entry block are excluded: the
// entry must stay first and a block cannot succeed itself.
func frequencyWeights(f *ir.Func, fp *interp.FuncProfile) []cfgEdge {
	merged := map[[2]int]int64{}
	for b, blk := range f.Blocks {
		for si, s := range blk.Term.Succs {
			if s == b || s == 0 {
				continue
			}
			merged[[2]int{b, s}] += fp.EdgeCounts[b][si]
		}
	}
	edges := make([]cfgEdge, 0, len(merged))
	//balignlint:ignore order laundered: chainAndOrder sorts edges with a total tie-break
	for k, w := range merged {
		edges = append(edges, cfgEdge{from: k[0], to: k[1], weight: w})
	}
	return edges
}

// chainAndOrder runs the greedy chaining pass over the candidate edges
// and concatenates the chains: entry chain first, then repeatedly the
// chain most strongly connected (by already-known edge weight) to the
// blocks placed so far, falling back to hotter and lower-numbered
// chains. Deterministic for a fixed input.
func chainAndOrder(f *ir.Func, fp *interp.FuncProfile, edges []cfgEdge) []int {
	n := len(f.Blocks)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].weight != edges[j].weight {
			return edges[i].weight > edges[j].weight
		}
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	next := make([]int, n)
	prev := make([]int, n)
	chainEnd := make([]int, n)
	for i := 0; i < n; i++ {
		next[i] = -1
		prev[i] = -1
		chainEnd[i] = i
	}
	for _, e := range edges {
		if e.weight == 0 {
			break
		}
		if next[e.from] != -1 || prev[e.to] != -1 {
			continue
		}
		if chainEnd[e.from] == e.to {
			continue // would close a cycle
		}
		next[e.from] = e.to
		prev[e.to] = e.from
		head := chainEnd[e.from]
		tail := chainEnd[e.to]
		chainEnd[head] = tail
		chainEnd[tail] = head
	}

	// Collect chains by head block.
	type chain struct {
		blocks []int
		heat   int64 // total execution count, for ordering fallback
	}
	var chains []*chain
	chainOf := make([]*chain, n)
	for h := 0; h < n; h++ {
		if prev[h] != -1 {
			continue
		}
		c := &chain{}
		for b := h; b != -1; b = next[b] {
			c.blocks = append(c.blocks, b)
			c.heat += fp.BlockCounts[b]
			chainOf[b] = c
		}
		chains = append(chains, c)
	}

	// Inter-chain attraction: weight of CFG edges from placed blocks into
	// a chain (and from the chain back, to keep loops together).
	attraction := func(placed map[*chain]bool, c *chain) int64 {
		var sum int64
		for b, blk := range f.Blocks {
			for si, s := range blk.Term.Succs {
				w := fp.EdgeCounts[b][si]
				if w == 0 {
					continue
				}
				fromPlaced := chainOf[b] != c && placed[chainOf[b]]
				intoC := chainOf[s] == c
				if fromPlaced && intoC {
					sum += w
				}
				if chainOf[b] == c && placed[chainOf[s]] && chainOf[s] != c {
					sum += w
				}
			}
		}
		return sum
	}

	order := make([]int, 0, n)
	placed := map[*chain]bool{}
	entryChain := chainOf[0]
	order = append(order, entryChain.blocks...)
	placed[entryChain] = true
	for len(order) < n {
		var best *chain
		var bestAttr, bestHeat int64 = -1, -1
		for _, c := range chains {
			if placed[c] {
				continue
			}
			a := attraction(placed, c)
			if a > bestAttr || (a == bestAttr && c.heat > bestHeat) {
				best, bestAttr, bestHeat = c, a, c.heat
			}
		}
		order = append(order, best.blocks...)
		placed[best] = true
	}
	return order
}
