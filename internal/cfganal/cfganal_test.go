package cfganal_test

import (
	"slices"
	"testing"

	"branchalign/internal/cfganal"
	"branchalign/internal/ir"
	"branchalign/internal/testutil"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := testutil.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestDominatorsOnDiamond(t *testing.T) {
	mod := compile(t, `func main(x) { var y = 0; if (x) { y = 1; } else { y = 2; } return y; }`)
	f := mod.Funcs[0]
	dom := cfganal.ComputeDominators(f)
	// Entry dominates everything.
	for b := range f.Blocks {
		if !dom.Dominates(0, b) {
			t.Errorf("entry should dominate b%d", b)
		}
		if !dom.Dominates(b, b) {
			t.Errorf("b%d should dominate itself", b)
		}
	}
	// The join block is dominated only by itself and entry (neither arm
	// dominates it).
	joinID := -1
	for b, blk := range f.Blocks {
		if blk.Term.Kind == ir.TermRet {
			joinID = b
		}
	}
	if joinID < 0 {
		t.Fatal("no ret block")
	}
	for b := range f.Blocks {
		if b == 0 || b == joinID {
			continue
		}
		if dom.Dominates(b, joinID) {
			t.Errorf("arm b%d must not dominate the join", b)
		}
	}
}

func TestDominatorsLinear(t *testing.T) {
	// A -> B -> C: idom chain is the path itself.
	fb := ir.NewFuncBuilder("f", nil)
	r := fb.NewReg()
	b1 := fb.NewBlock("b1")
	b2 := fb.NewBlock("b2")
	fb.EmitConst(r, 1)
	fb.Br(b1)
	fb.SetInsert(b1)
	fb.Br(b2)
	fb.SetInsert(b2)
	fb.Ret(ir.RegVal(r))
	f := fb.Func()
	dom := cfganal.ComputeDominators(f)
	if dom.IDom[b1] != 0 || dom.IDom[b2] != b1 {
		t.Errorf("idoms wrong: %v", dom.IDom)
	}
	if !dom.Dominates(b1, b2) || dom.Dominates(b2, b1) {
		t.Error("linear dominance wrong")
	}
}

func TestUnreachableBlocksDominateNothing(t *testing.T) {
	mod := compile(t, `func main() { return 1; out(2); }`)
	f := mod.Funcs[0]
	dom := cfganal.ComputeDominators(f)
	// The dead block (created for unreachable code) has IDom -1.
	dead := -1
	for b := range f.Blocks {
		if dom.IDom[b] == -1 {
			dead = b
		}
	}
	if dead < 0 {
		t.Skip("no unreachable block produced")
	}
	if dom.Dominates(dead, 0) || dom.Dominates(0, dead) {
		t.Error("unreachable block should not participate in dominance")
	}
}

func TestNaturalLoopsSimple(t *testing.T) {
	mod := compile(t, `
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
`)
	f := mod.Funcs[0]
	dom := cfganal.ComputeDominators(f)
	loops := cfganal.NaturalLoops(f, dom)
	if len(loops) != 1 {
		t.Fatalf("expected 1 loop, got %d: %+v", len(loops), loops)
	}
	l := loops[0]
	if len(l.Blocks) < 3 {
		t.Errorf("loop body too small: %+v", l)
	}
	// The header must be in its own body, and the back edge source too.
	in := func(b int) bool {
		for _, x := range l.Blocks {
			if x == b {
				return true
			}
		}
		return false
	}
	if !in(l.Header) || !in(l.Back) {
		t.Errorf("loop body must contain header and back-edge source: %+v", l)
	}
	// The exit/ret block must be outside.
	for b, blk := range f.Blocks {
		if blk.Term.Kind == ir.TermRet && in(b) {
			t.Errorf("ret block b%d inside the loop", b)
		}
	}
}

func TestLoopDepthNesting(t *testing.T) {
	mod := compile(t, `
func main(n) {
	var i;
	var j;
	var s = 0;
	for (i = 0; i < n; i = i + 1) {
		for (j = 0; j < n; j = j + 1) {
			s = s + 1;
		}
	}
	while (s > 0) { s = s - 1; }
	return s;
}
`)
	f := mod.Funcs[0]
	depth := cfganal.LoopDepth(f)
	max := 0
	ones := 0
	for _, d := range depth {
		if d > max {
			max = d
		}
		if d == 1 {
			ones++
		}
	}
	if max != 2 {
		t.Errorf("max loop depth = %d, want 2 (nested for)\n%s depths %v", max, f.Body(), depth)
	}
	if ones == 0 {
		t.Error("expected depth-1 blocks (outer loop and while loop)")
	}
	if depth[0] != 0 {
		t.Errorf("entry depth = %d, want 0", depth[0])
	}
}

// TestHotBlocksAreDeep ties the analysis to profiling: on the benchmark
// suite, the hottest block of each function must sit at a loop depth at
// least as large as the function's entry (a sanity check that the
// benchmarks have loop-shaped heat).
func TestHotBlocksAreDeep(t *testing.T) {
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource, testutil.BranchyInput(400, 9))
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range mod.Funcs {
		depth := cfganal.LoopDepth(f)
		fp := prof.Funcs[fi]
		hot, hotCount := 0, int64(-1)
		for b, c := range fp.BlockCounts {
			if c > hotCount {
				hot, hotCount = b, c
			}
		}
		if hotCount <= 0 {
			continue
		}
		if depth[hot] < depth[0] {
			t.Errorf("func %s: hottest block b%d at depth %d, shallower than entry", f.Name, hot, depth[hot])
		}
	}
}

// chainFunc builds a straight-line CFG of n blocks: b0 -> b1 -> ... ->
// b(n-1) -> ret. Deep enough chains overflowed the goroutine stack when
// the DFS inside ComputeDominators was recursive.
func chainFunc(n int) *ir.Func {
	f := &ir.Func{Name: "chain", NumRegs: 1}
	for i := 0; i < n; i++ {
		term := ir.Terminator{Kind: ir.TermBr, Succs: []int{i + 1}}
		if i == n-1 {
			term = ir.Terminator{Kind: ir.TermRet, Val: ir.ConstVal(0)}
		}
		f.Blocks = append(f.Blocks, &ir.Block{ID: i, Term: term})
	}
	return f
}

func TestDominatorsDeepChain(t *testing.T) {
	// 500k blocks: a recursive DFS would need ~500k stack frames, well
	// past any fixed recursion budget; the explicit-stack version is fine
	// (and linear).
	const n = 500_000
	f := chainFunc(n)
	dom := cfganal.ComputeDominators(f)
	if dom.IDom[n-1] != n-2 {
		t.Fatalf("IDom[last] = %d, want %d", dom.IDom[n-1], n-2)
	}
	rpo := dom.ReversePostorder()
	if len(rpo) != n || rpo[0] != 0 || rpo[n-1] != n-1 {
		t.Fatalf("unexpected reverse postorder shape: len=%d first=%d last=%d", len(rpo), rpo[0], rpo[n-1])
	}
}

// recursiveRPO is the textbook recursive depth-first reverse postorder,
// successors in index order: the reference the dominator computation's
// explicit-stack DFS must reproduce.
func recursiveRPO(f *ir.Func) []int {
	visited := make([]bool, len(f.Blocks))
	var post []int
	var visit func(b int)
	visit = func(b int) {
		visited[b] = true
		for _, s := range f.Blocks[b].Term.Succs {
			if !visited[s] {
				visit(s)
			}
		}
		post = append(post, b)
	}
	visit(0)
	slices.Reverse(post)
	return post
}

func TestReversePostorderMatchesDominatorOrder(t *testing.T) {
	mod := compile(t, `func main(x) { var y = 0; while (x > 0) { if (x % 2) { y = y + 1; } x = x - 1; } return y; }`)
	f := mod.Funcs[0]
	dom := cfganal.ComputeDominators(f)
	a, b := recursiveRPO(f), dom.ReversePostorder()
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order mismatch at %d: %v vs %v", i, a, b)
		}
	}
	// Every predecessor of a block outside a loop appears before it.
	pos := make(map[int]int)
	for i, blk := range a {
		pos[blk] = i
	}
	if pos[0] != 0 {
		t.Fatalf("entry not first in RPO: %v", a)
	}
}
