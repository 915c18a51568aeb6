package cfganal_test

import (
	"sort"
	"testing"

	"branchalign/internal/cfganal"
	"branchalign/internal/ir"
)

// Hand-built pathological CFGs. Each builder returns the function plus
// the block IDs the assertions reference by role.

// irreducibleFunc: entry conditionally jumps into the middle of a cycle.
//
//	entry -> a | b;  a -> b;  b -> a | ret
//
// The a<->b cycle has two entries, so neither retreating edge is a back
// edge: the region is irreducible and NaturalLoops finds nothing.
func irreducibleFunc() (*ir.Func, map[string]int) {
	fb := ir.NewFuncBuilder("irr", []ir.ParamKind{ir.ParamScalar})
	a := fb.NewBlock("a")
	b := fb.NewBlock("b")
	ret := fb.NewBlock("ret")
	fb.CondBr(ir.RegVal(0), a, b)
	fb.SetInsert(a)
	fb.Br(b)
	fb.SetInsert(b)
	fb.CondBr(ir.RegVal(0), a, ret)
	fb.SetInsert(ret)
	fb.Ret(ir.ConstVal(0))
	return fb.Func(), map[string]int{"a": a, "b": b, "ret": ret}
}

// selfLoopFunc: entry -> s; s -> s | ret. The tightest natural loop.
func selfLoopFunc() (*ir.Func, map[string]int) {
	fb := ir.NewFuncBuilder("self", []ir.ParamKind{ir.ParamScalar})
	s := fb.NewBlock("s")
	ret := fb.NewBlock("ret")
	fb.Br(s)
	fb.SetInsert(s)
	fb.CondBr(ir.RegVal(0), s, ret)
	fb.SetInsert(ret)
	fb.Ret(ir.ConstVal(0))
	return fb.Func(), map[string]int{"s": s, "ret": ret}
}

// unreachableFunc: entry -> ret, plus a dead block that branches into the
// live graph (so the dead edge must not pollute any classification).
func unreachableFunc() (*ir.Func, map[string]int) {
	fb := ir.NewFuncBuilder("dead", nil)
	ret := fb.NewBlock("ret")
	dead := fb.NewBlock("dead")
	fb.Br(ret)
	fb.SetInsert(ret)
	fb.Ret(ir.ConstVal(0))
	fb.SetInsert(dead)
	fb.Br(ret)
	return fb.Func(), map[string]int{"ret": ret, "dead": dead}
}

// multiExitFunc: a natural loop with two distinct exit edges (a guarded
// break plus the header exit) and two latches (a continue path), which
// also exercises the merge of same-header natural loops.
//
//	entry -> h;  h -> body | ret;  body -> brk | latch1
//	latch1 -> h | latch2;  latch2 -> h;  brk -> ret
//
// brk leaves the loop (second exit); latch1 and latch2 are two distinct
// back-edge sources for the same header.
func multiExitFunc() (*ir.Func, map[string]int) {
	fb := ir.NewFuncBuilder("multi", []ir.ParamKind{ir.ParamScalar, ir.ParamScalar})
	h := fb.NewBlock("h")
	body := fb.NewBlock("body")
	latch1 := fb.NewBlock("latch1")
	latch2 := fb.NewBlock("latch2")
	brk := fb.NewBlock("brk") // break target, outside the loop
	ret := fb.NewBlock("ret")
	fb.Br(h)
	fb.SetInsert(h)
	fb.CondBr(ir.RegVal(0), body, ret) // exit edge 1: h -> ret
	fb.SetInsert(body)
	fb.CondBr(ir.RegVal(1), brk, latch1) // exit edge 2: body -> brk
	fb.SetInsert(latch1)
	fb.CondBr(ir.RegVal(0), h, latch2) // back edge 1: latch1 -> h
	fb.SetInsert(latch2)
	fb.Br(h) // back edge 2: latch2 -> h
	fb.SetInsert(brk)
	fb.Br(ret)
	fb.SetInsert(ret)
	fb.Ret(ir.ConstVal(0))
	return fb.Func(), map[string]int{
		"h": h, "body": body, "latch1": latch1, "latch2": latch2, "brk": brk, "ret": ret,
	}
}

// nestedFunc: entry -> oh; oh -> ih | ret; ih -> ib | oh_latch;
// ib -> ih (inner back); oh_latch -> oh (outer back).
func nestedFunc() (*ir.Func, map[string]int) {
	fb := ir.NewFuncBuilder("nested", []ir.ParamKind{ir.ParamScalar})
	oh := fb.NewBlock("oh")
	ih := fb.NewBlock("ih")
	ib := fb.NewBlock("ib")
	olatch := fb.NewBlock("olatch")
	ret := fb.NewBlock("ret")
	fb.Br(oh)
	fb.SetInsert(oh)
	fb.CondBr(ir.RegVal(0), ih, ret)
	fb.SetInsert(ih)
	fb.CondBr(ir.RegVal(0), ib, olatch)
	fb.SetInsert(ib)
	fb.Br(ih)
	fb.SetInsert(olatch)
	fb.Br(oh)
	fb.SetInsert(ret)
	fb.Ret(ir.ConstVal(0))
	return fb.Func(), map[string]int{"oh": oh, "ih": ih, "ib": ib, "olatch": olatch, "ret": ret}
}

func edgePairs(es []cfganal.Edge) [][2]int {
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.From, e.To}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func TestAnalyzeLoopsPathological(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*ir.Func, map[string]int)
		check func(t *testing.T, f *ir.Func, ids map[string]int, nest *cfganal.LoopNest)
	}{
		{
			name:  "irreducible two-entry cycle",
			build: irreducibleFunc,
			check: func(t *testing.T, f *ir.Func, ids map[string]int, nest *cfganal.LoopNest) {
				if !nest.Irreducible() {
					t.Fatal("two-entry cycle not flagged irreducible")
				}
				if len(nest.Loops) != 0 {
					t.Errorf("no natural loops expected, got %d", len(nest.Loops))
				}
				// Exactly one retreating edge (whichever of a<->b is later in
				// RPO), and it must not be a back edge.
				if len(nest.IrreducibleEdges) != 1 {
					t.Fatalf("want 1 irreducible edge, got %v", nest.IrreducibleEdges)
				}
				e := nest.IrreducibleEdges[0]
				if nest.Dom.Dominates(e.To, e.From) {
					t.Errorf("irreducible edge %v classified as back edge", e)
				}
				if !nest.Retreating(e.From, e.To) {
					t.Errorf("irreducible edge %v not retreating", e)
				}
				// Neither cycle member dominates the other.
				if nest.Dom.Dominates(ids["a"], ids["b"]) || nest.Dom.Dominates(ids["b"], ids["a"]) {
					t.Error("cycle members must not dominate each other")
				}
			},
		},
		{
			name:  "self loop",
			build: selfLoopFunc,
			check: func(t *testing.T, f *ir.Func, ids map[string]int, nest *cfganal.LoopNest) {
				if nest.Irreducible() {
					t.Fatalf("self loop flagged irreducible: %v", nest.IrreducibleEdges)
				}
				if len(nest.Loops) != 1 {
					t.Fatalf("want 1 loop, got %d", len(nest.Loops))
				}
				l := nest.Loops[0]
				s := ids["s"]
				if l.Header != s || len(l.Blocks) != 1 || l.Blocks[0] != s {
					t.Errorf("self loop shape wrong: %+v", l)
				}
				if got := edgePairs(l.BackEdges); len(got) != 1 || got[0] != [2]int{s, s} {
					t.Errorf("back edges = %v, want [[s s]]", got)
				}
				if got := edgePairs(l.ExitEdges); len(got) != 1 || got[0] != [2]int{s, ids["ret"]} {
					t.Errorf("exit edges = %v, want [[s ret]]", got)
				}
				if nest.Depth[s] != 1 || nest.LoopOf[s] != 0 {
					t.Errorf("depth/loopOf wrong: depth=%d loopOf=%d", nest.Depth[s], nest.LoopOf[s])
				}
				if !nest.Dom.Dominates(s, s) || !nest.Retreating(s, s) {
					t.Error("self edge must be retreating and a back edge")
				}
			},
		},
		{
			name:  "unreachable block",
			build: unreachableFunc,
			check: func(t *testing.T, f *ir.Func, ids map[string]int, nest *cfganal.LoopNest) {
				dead := ids["dead"]
				if nest.RPONum[dead] != -1 {
					t.Errorf("dead block has RPO number %d", nest.RPONum[dead])
				}
				if nest.Irreducible() || len(nest.Loops) != 0 {
					t.Errorf("acyclic live graph misclassified: loops=%d irr=%v", len(nest.Loops), nest.IrreducibleEdges)
				}
				if nest.Retreating(dead, ids["ret"]) {
					t.Error("edge from unreachable block must not be retreating")
				}
				if nest.LoopOf[dead] != -1 || nest.Depth[dead] != 0 {
					t.Error("unreachable block assigned to a loop")
				}
			},
		},
		{
			name:  "multi-exit loop with two latches",
			build: multiExitFunc,
			check: func(t *testing.T, f *ir.Func, ids map[string]int, nest *cfganal.LoopNest) {
				if nest.Irreducible() {
					t.Fatalf("reducible loop flagged irreducible: %v", nest.IrreducibleEdges)
				}
				if len(nest.Loops) != 1 {
					t.Fatalf("two latches must merge into 1 loop, got %d", len(nest.Loops))
				}
				l := nest.Loops[0]
				h := ids["h"]
				if l.Header != h {
					t.Fatalf("header = b%d, want b%d", l.Header, h)
				}
				wantBody := []int{h, ids["body"], ids["latch1"], ids["latch2"]}
				sort.Ints(wantBody)
				if len(l.Blocks) != len(wantBody) {
					t.Fatalf("body = %v, want %v", l.Blocks, wantBody)
				}
				for i := range wantBody {
					if l.Blocks[i] != wantBody[i] {
						t.Fatalf("body = %v, want %v", l.Blocks, wantBody)
					}
				}
				backs := edgePairs(l.BackEdges)
				wantBacks := edgePairs([]cfganal.Edge{
					{From: ids["latch1"], To: h},
					{From: ids["latch2"], To: h},
				})
				if len(backs) != 2 || backs[0] != wantBacks[0] || backs[1] != wantBacks[1] {
					t.Errorf("back edges = %v, want %v", backs, wantBacks)
				}
				exits := edgePairs(l.ExitEdges)
				wantExits := edgePairs([]cfganal.Edge{
					{From: h, To: ids["ret"]},
					{From: ids["body"], To: ids["brk"]},
				})
				if len(exits) != 2 || exits[0] != wantExits[0] || exits[1] != wantExits[1] {
					t.Errorf("exit edges = %v, want %v", exits, wantExits)
				}
				// Dominators: the header dominates every body block; the
				// break target is dominated by body, not by the latches.
				for _, b := range l.Blocks {
					if !nest.Dom.Dominates(h, b) {
						t.Errorf("header must dominate body block b%d", b)
					}
				}
				if !nest.Dom.Dominates(ids["body"], ids["brk"]) {
					t.Error("body must dominate break target")
				}
				if nest.Dom.Dominates(ids["latch1"], ids["brk"]) {
					t.Error("latch must not dominate break target")
				}
			},
		},
		{
			name:  "nested loops",
			build: nestedFunc,
			check: func(t *testing.T, f *ir.Func, ids map[string]int, nest *cfganal.LoopNest) {
				if len(nest.Loops) != 2 {
					t.Fatalf("want 2 loops, got %d", len(nest.Loops))
				}
				// Inner-first order: Loops[0] is the inner loop (depth 2).
				inner, outer := nest.Loops[0], nest.Loops[1]
				if inner.Depth != 2 || outer.Depth != 1 {
					t.Fatalf("depths = %d,%d; want 2,1", inner.Depth, outer.Depth)
				}
				if inner.Header != ids["ih"] || outer.Header != ids["oh"] {
					t.Errorf("headers = b%d,b%d; want b%d,b%d", inner.Header, outer.Header, ids["ih"], ids["oh"])
				}
				if inner.Parent != 1 || outer.Parent != -1 {
					t.Errorf("parents = %d,%d; want 1,-1", inner.Parent, outer.Parent)
				}
				if nest.Depth[ids["ib"]] != 2 || nest.Depth[ids["olatch"]] != 1 || nest.Depth[ids["ret"]] != 0 {
					t.Errorf("block depths wrong: %v", nest.Depth)
				}
				if nest.LoopOf[ids["ib"]] != 0 || nest.LoopOf[ids["olatch"]] != 1 {
					t.Errorf("LoopOf wrong: %v", nest.LoopOf)
				}
				// The outer body contains the whole inner body.
				for _, b := range inner.Blocks {
					if !outer.Contains(b) {
						t.Errorf("outer loop missing inner block b%d", b)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, ids := tc.build()
			tc.check(t, f, ids, cfganal.AnalyzeLoops(f))
		})
	}
}

// TestAnalyzeLoopsAgreesWithLoopDepth cross-checks the merged nest's
// per-block depth against the existing LoopDepth on a compiled program.
func TestAnalyzeLoopsAgreesWithLoopDepth(t *testing.T) {
	mod := compile(t, `
func main(n) {
	var i;
	var j;
	var s = 0;
	for (i = 0; i < n; i = i + 1) {
		for (j = 0; j < n; j = j + 1) {
			if (s % 2) { s = s + 3; } else { s = s + 1; }
		}
	}
	while (s > 0) { s = s - 1; }
	return s;
}
`)
	f := mod.Funcs[0]
	nest := cfganal.AnalyzeLoops(f)
	want := cfganal.LoopDepth(f)
	for b := range f.Blocks {
		if nest.Depth[b] != want[b] {
			t.Errorf("b%d: nest depth %d, LoopDepth %d", b, nest.Depth[b], want[b])
		}
	}
	if nest.Irreducible() {
		t.Errorf("structured program flagged irreducible: %v", nest.IrreducibleEdges)
	}
}
