// Package cfganal provides classic control-flow analyses over the IR:
// dominator trees (Cooper-Harvey-Kennedy's iterative algorithm), natural
// loop detection via back edges, and per-block loop depth. The aligners
// themselves work purely from edge frequencies, but loop structure is
// the standard way to sanity-check benchmark shape (hot blocks should be
// the deepest) and to report what a layout did to each loop body.
package cfganal

import (
	"sort"

	"branchalign/internal/ir"
)

// Dominators holds the dominator tree of a function.
type Dominators struct {
	// IDom[b] is the immediate dominator of block b (IDom[entry] ==
	// entry). Unreachable blocks have IDom -1.
	IDom []int
	// order is the reverse-postorder numbering used internally.
	rpo []int
}

// ComputeDominators builds the dominator tree with the iterative
// algorithm of Cooper, Harvey and Kennedy ("A Simple, Fast Dominance
// Algorithm").
func ComputeDominators(f *ir.Func) *Dominators {
	n := len(f.Blocks)
	rpo := reversePostorder(f)
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range rpo {
		rpoNum[b] = i
	}

	preds := f.Preds()
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if idom[p] == -1 {
					continue // predecessor not yet processed/reachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return &Dominators{IDom: idom, rpo: rpo}
}

// ReversePostorder returns the reverse-postorder block sequence the
// dominator computation used (a copy; reachable blocks only). It is the
// canonical iteration order for forward dataflow analyses (package check
// builds on it).
func (d *Dominators) ReversePostorder() []int {
	return append([]int(nil), d.rpo...)
}

// reversePostorder runs an explicit-stack depth-first search from the
// entry and returns the reverse postorder. The iterative formulation
// keeps a (block, next-successor-index) frame per stack entry, so CFGs of
// any depth — e.g. the pathological straight-line chains large lowered
// functions produce — cannot overflow the goroutine stack the way the
// previous recursive DFS could.
func reversePostorder(f *ir.Func) []int {
	n := len(f.Blocks)
	visited := make([]bool, n)
	post := make([]int, 0, n)
	type frame struct {
		block int
		next  int // index into Succs of the next edge to explore
	}
	stack := make([]frame, 0, 16)
	visited[0] = true
	stack = append(stack, frame{block: 0})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := f.Blocks[top.block].Term.Succs
		advanced := false
		for top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{block: s})
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		post = append(post, top.block)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int, len(post))
	for i := range post {
		rpo[i] = post[len(post)-1-i]
	}
	return rpo
}

// Dominates reports whether block a dominates block b (every block
// dominates itself). Unreachable blocks dominate nothing and are
// dominated by nothing.
func (d *Dominators) Dominates(a, b int) bool {
	if d.IDom[b] == -1 || d.IDom[a] == -1 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == 0 {
			return a == 0
		}
		b = d.IDom[b]
	}
}

// Loop is a natural loop.
type Loop struct {
	// Header is the loop-header block.
	Header int
	// Back is the source of the back edge defining the loop.
	Back int
	// Blocks lists the loop body (including the header), ascending.
	Blocks []int
}

// NaturalLoops finds all natural loops: for every back edge (t -> h)
// where h dominates t, the loop body is h plus all blocks that reach t
// without passing through h. Loops sharing a header are reported
// separately (one per back edge), like classic textbooks do.
func NaturalLoops(f *ir.Func, dom *Dominators) []Loop {
	preds := f.Preds()
	var loops []Loop
	for t, blk := range f.Blocks {
		for _, h := range blk.Term.Succs {
			if !dom.Dominates(h, t) {
				continue
			}
			inLoop := map[int]bool{h: true}
			stack := []int{t}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if inLoop[b] {
					continue
				}
				inLoop[b] = true
				for _, p := range preds[b] {
					stack = append(stack, p)
				}
			}
			body := make([]int, 0, len(inLoop))
			for b := range inLoop {
				body = append(body, b)
			}
			sort.Ints(body)
			loops = append(loops, Loop{Header: h, Back: t, Blocks: body})
		}
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Header != loops[j].Header {
			return loops[i].Header < loops[j].Header
		}
		return loops[i].Back < loops[j].Back
	})
	return loops
}

// LoopDepth returns, for every block, the number of natural loops whose
// body contains it (0 = not in any loop).
func LoopDepth(f *ir.Func) []int {
	dom := ComputeDominators(f)
	loops := NaturalLoops(f, dom)
	// Merge loops with the same header (they are one loop with several
	// back edges) before counting nesting.
	byHeader := map[int]map[int]bool{}
	for _, l := range loops {
		set := byHeader[l.Header]
		if set == nil {
			set = map[int]bool{}
			byHeader[l.Header] = set
		}
		for _, b := range l.Blocks {
			set[b] = true
		}
	}
	depth := make([]int, len(f.Blocks))
	for _, set := range byHeader {
		for b := range set {
			depth[b]++
		}
	}
	return depth
}
