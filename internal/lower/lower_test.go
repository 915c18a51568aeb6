package lower_test

import (
	"strings"
	"testing"

	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := minic.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	mod, err := lower.Program(info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return mod
}

func termKinds(f *ir.Func) map[ir.TermKind]int {
	out := map[ir.TermKind]int{}
	for _, b := range f.Blocks {
		out[b.Term.Kind]++
	}
	return out
}

func TestLowerIfProducesDiamond(t *testing.T) {
	mod := compile(t, `func main(x) { if (x > 0) { out(1); } else { out(2); } return 0; }`)
	f := mod.Funcs[0]
	kinds := termKinds(f)
	if kinds[ir.TermCondBr] != 1 {
		t.Errorf("expected 1 conditional, got %d\n%s", kinds[ir.TermCondBr], f.Body())
	}
	// then + else + join + entry = 4 blocks.
	if len(f.Blocks) != 4 {
		t.Errorf("expected 4 blocks, got %d\n%s", len(f.Blocks), f.Body())
	}
}

func TestLowerIfWithoutElse(t *testing.T) {
	mod := compile(t, `func main(x) { if (x) { out(1); } return 0; }`)
	f := mod.Funcs[0]
	if len(f.Blocks) != 3 { // entry, then, join
		t.Errorf("expected 3 blocks, got %d\n%s", len(f.Blocks), f.Body())
	}
	// The conditional's false edge goes straight to the join block.
	entry := f.Blocks[0]
	if entry.Term.Kind != ir.TermCondBr {
		t.Fatalf("entry should end in condbr")
	}
	join := entry.Term.Succs[1]
	if f.Blocks[join].Term.Kind != ir.TermRet {
		t.Errorf("false edge should reach the ret block\n%s", f.Body())
	}
}

func TestLowerWhileShape(t *testing.T) {
	mod := compile(t, `func main(n) { while (n > 0) { n = n - 1; } return n; }`)
	f := mod.Funcs[0]
	kinds := termKinds(f)
	if kinds[ir.TermCondBr] != 1 {
		t.Errorf("while should produce exactly one conditional (the header)")
	}
	// Header must be reachable from both entry and the body (back edge).
	preds := f.Preds()
	headerID := -1
	for bi, b := range f.Blocks {
		if b.Term.Kind == ir.TermCondBr {
			headerID = bi
		}
	}
	if headerID < 0 || len(preds[headerID]) != 2 {
		t.Errorf("loop header should have 2 predecessors (entry + back edge), got %v", preds[headerID])
	}
}

func TestLowerForContinueTargetsPost(t *testing.T) {
	// continue in a for loop must execute the post statement: iterating
	// i=0..4 with continue on odd i must still terminate and count evens.
	mod := compile(t, `
func main() {
	var i;
	var evens = 0;
	for (i = 0; i < 5; i = i + 1) {
		if (i % 2 == 1) { continue; }
		evens = evens + 1;
	}
	return evens;
}
`)
	// Structure check: some block (for.post) must be the target of both
	// the body fall-through and the continue edge.
	f := mod.Funcs[0]
	preds := f.Preds()
	multi := 0
	for bi := range f.Blocks {
		if len(preds[bi]) >= 2 {
			multi++
		}
	}
	if multi < 2 {
		t.Errorf("expected merge blocks for head and post\n%s", f.Body())
	}
}

func TestLowerSwitchShape(t *testing.T) {
	mod := compile(t, `
func main(x) {
	switch (x) {
	case 1: out(1);
	case 2: out(2);
	case 7: out(7);
	}
	return 0;
}
`)
	f := mod.Funcs[0]
	var sw *ir.Terminator
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermSwitch {
			sw = &b.Term
		}
	}
	if sw == nil {
		t.Fatalf("no switch terminator\n%s", f.Body())
	}
	if len(sw.Cases) != 3 || len(sw.Succs) != 4 {
		t.Errorf("switch shape wrong: %d cases, %d succs", len(sw.Cases), len(sw.Succs))
	}
	// Without a default, the default successor is the join block.
	deflt := sw.Succs[len(sw.Succs)-1]
	if f.Blocks[deflt].Term.Kind != ir.TermRet {
		t.Errorf("default edge should reach the join/ret block\n%s", f.Body())
	}
}

func TestLowerShortCircuitBranches(t *testing.T) {
	// a && b in a condition produces two conditionals and no boolean
	// materialization blocks.
	mod := compile(t, `func main(a, b) { if (a > 0 && b > 0) { return 1; } return 0; }`)
	kinds := termKinds(mod.Funcs[0])
	if kinds[ir.TermCondBr] != 2 {
		t.Errorf("&& in condition should lower to 2 conditionals, got %d\n%s",
			kinds[ir.TermCondBr], mod.Funcs[0].Body())
	}
	// In value position it also needs the 0/1 diamond.
	mod2 := compile(t, `func main(a, b) { var v = a > 0 && b > 0; return v; }`)
	kinds2 := termKinds(mod2.Funcs[0])
	if kinds2[ir.TermCondBr] != 2 {
		t.Errorf("value-position && should still lower to 2 conditionals, got %d", kinds2[ir.TermCondBr])
	}
	if len(mod2.Funcs[0].Blocks) < 5 {
		t.Errorf("value-position && needs the 0/1 diamond\n%s", mod2.Funcs[0].Body())
	}
}

func TestLowerNotInvertsBranch(t *testing.T) {
	// !cond in an if swaps the branch targets rather than computing a
	// negation.
	mod := compile(t, `func main(a) { if (!(a > 0)) { return 1; } return 0; }`)
	f := mod.Funcs[0]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.InstrUn && in.Op == ir.OpNot {
				t.Errorf("condition-position ! should not materialize OpNot\n%s", f.Body())
			}
		}
	}
}

func TestLowerDeadCodeAfterReturn(t *testing.T) {
	mod := compile(t, `func main() { return 1; out(2); }`)
	f := mod.Funcs[0]
	// Unreachable code goes into a dead block; the module still verifies.
	if len(f.Blocks) < 2 {
		t.Errorf("expected a dead block for unreachable code\n%s", f.Body())
	}
	if err := mod.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLowerImplicitReturnZero(t *testing.T) {
	mod := compile(t, `func main() { out(1); }`)
	f := mod.Funcs[0]
	last := f.Blocks[len(f.Blocks)-1]
	if last.Term.Kind != ir.TermRet || !last.Term.Val.IsConst || last.Term.Val.Const != 0 {
		t.Errorf("expected implicit ret 0\n%s", f.Body())
	}
}

func TestLowerGlobalsAndArrays(t *testing.T) {
	mod := compile(t, `
global g;
global arr[10];
func main(x) {
	g = x;
	arr[1] = g + 1;
	return arr[1];
}
`)
	text := mod.String()
	for _, want := range []string{"gs[0] = r0", "g[0]["} {
		if !strings.Contains(text, want) {
			t.Errorf("module text missing %q:\n%s", want, text)
		}
	}
	if len(mod.GlobalNames) != 1 || len(mod.GlobalArrays) != 1 {
		t.Errorf("global tables wrong: %v %v", mod.GlobalNames, mod.GlobalArrays)
	}
}

func TestLowerEntryFunction(t *testing.T) {
	mod := compile(t, `func helper() { return 1; } func main() { return helper(); }`)
	if mod.EntryFunc != 1 {
		t.Errorf("EntryFunc = %d, want 1 (main)", mod.EntryFunc)
	}
	mod2 := compile(t, `func only() { return 1; }`)
	if mod2.EntryFunc != 0 {
		t.Errorf("EntryFunc without main = %d, want 0", mod2.EntryFunc)
	}
}

func TestLowerCallArguments(t *testing.T) {
	mod := compile(t, `
func f(a, b[], c) { return a + b[0] + c; }
func main() {
	var buf[4];
	buf[0] = 5;
	return f(1, buf, 2);
}
`)
	// Find the call and check the argument shapes.
	var call *ir.Instr
	for _, b := range mod.Funcs[1].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Kind == ir.InstrCall {
				call = &b.Instrs[i]
			}
		}
	}
	if call == nil {
		t.Fatal("no call instruction")
	}
	if len(call.Args) != 3 || call.Args[0].IsArray || !call.Args[1].IsArray || call.Args[2].IsArray {
		t.Errorf("call argument shapes wrong: %+v", call.Args)
	}
}

func TestLowerScopedShadowingUsesDistinctRegisters(t *testing.T) {
	mod := compile(t, `
func main(x) {
	var y = 1;
	if (x) {
		var y = 2;
		out(y);
	}
	return y;
}
`)
	f := mod.Funcs[0]
	// x + outer y + inner y = at least 3 registers.
	if f.NumRegs < 3 {
		t.Errorf("NumRegs = %d, want >= 3\n%s", f.NumRegs, f.Body())
	}
}
