package interp

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
)

// compile builds a module from Mini-C source.
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

func run(t *testing.T, src string, inputs []Input) Result {
	t.Helper()
	mod := compile(t, src)
	res, err := Run(mod, inputs, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestArithmeticAndReturn(t *testing.T) {
	res := run(t, `func main(a, b) { return a * b + a - b / 2; }`,
		[]Input{ScalarInput(7), ScalarInput(4)})
	if res.Ret != 7*4+7-4/2 {
		t.Errorf("Ret = %d", res.Ret)
	}
}

func TestFib(t *testing.T) {
	res := run(t, `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main(n) { return fib(n); }
`, []Input{ScalarInput(15)})
	if res.Ret != 610 {
		t.Errorf("fib(15) = %d, want 610", res.Ret)
	}
	if res.DynCall == 0 || res.DynRet == 0 {
		t.Error("call/ret counters not incremented")
	}
}

func TestLoopsAndArrays(t *testing.T) {
	res := run(t, `
func main(input[], n) {
	var i;
	var sum = 0;
	for (i = 0; i < n; i = i + 1) {
		if (input[i] % 2 == 0) {
			sum = sum + input[i];
		} else {
			sum = sum - 1;
		}
	}
	return sum;
}
`, []Input{ArrayInput([]int64{1, 2, 3, 4, 5, 6}), ScalarInput(6)})
	if res.Ret != 2+4+6-3 {
		t.Errorf("Ret = %d, want 9", res.Ret)
	}
}

func TestWhileBreakContinue(t *testing.T) {
	res := run(t, `
func main(n) {
	var i = 0;
	var sum = 0;
	while (1) {
		i = i + 1;
		if (i > n) { break; }
		if (i % 3 == 0) { continue; }
		sum = sum + i;
	}
	return sum;
}
`, []Input{ScalarInput(10)})
	// 1+2+4+5+7+8+10 = 37
	if res.Ret != 37 {
		t.Errorf("Ret = %d, want 37", res.Ret)
	}
}

func TestSwitchSemantics(t *testing.T) {
	src := `
func classify(x) {
	switch (x) {
	case 0: return 100;
	case 1:
	case 2: return 102;
	default: return 999;
	}
	return -1;
}
func main(x) { return classify(x); }
`
	// Note: Mini-C case arms do not fall through; an empty arm jumps to
	// the end of the switch.
	cases := map[int64]int64{0: 100, 1: -1, 2: 102, 5: 999}
	for in, want := range cases {
		res := run(t, src, []Input{ScalarInput(in)})
		if res.Ret != want {
			t.Errorf("classify(%d) = %d, want %d", in, res.Ret, want)
		}
	}
}

func TestSwitchBreak(t *testing.T) {
	res := run(t, `
func main(x) {
	var r = 0;
	switch (x) {
	case 1:
		r = 10;
		break;
	case 2:
		r = 20;
	}
	return r + 1;
}
`, []Input{ScalarInput(1)})
	if res.Ret != 11 {
		t.Errorf("Ret = %d, want 11", res.Ret)
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand of && must not run when the left is false: here it
	// would divide by zero.
	res := run(t, `
func main(a, b) {
	if (b != 0 && a / b > 1) { return 1; }
	return 0;
}
`, []Input{ScalarInput(10), ScalarInput(0)})
	if res.Ret != 0 {
		t.Errorf("Ret = %d, want 0", res.Ret)
	}
	res = run(t, `
func main(a) {
	var x = a > 1 || a < -1;
	return x;
}
`, []Input{ScalarInput(-5)})
	if res.Ret != 1 {
		t.Errorf("boolean value = %d, want 1", res.Ret)
	}
}

func TestGlobalsPersistAcrossCalls(t *testing.T) {
	res := run(t, `
global counter;
global hist[4];
func bump(k) {
	counter = counter + 1;
	hist[k % 4] = hist[k % 4] + 1;
	return counter;
}
func main(n) {
	var i;
	for (i = 0; i < n; i = i + 1) { bump(i); }
	return counter * 100 + hist[1];
}
`, []Input{ScalarInput(9)})
	// counter = 9; hist[1] counts i in {1, 5} -> 2.
	if res.Ret != 9*100+2 {
		t.Errorf("Ret = %d, want %d", res.Ret, 9*100+2)
	}
}

func TestOutStream(t *testing.T) {
	res := run(t, `
func main(n) {
	var i;
	for (i = 0; i < n; i = i + 1) { out(i * i); }
	return 0;
}
`, []Input{ScalarInput(4)})
	want := []int64{0, 1, 4, 9}
	if len(res.Output) != len(want) {
		t.Fatalf("output length %d, want %d", len(res.Output), len(want))
	}
	for i, w := range want {
		if res.Output[i] != w {
			t.Errorf("output[%d] = %d, want %d", i, res.Output[i], w)
		}
	}
}

func TestArraySharingByReference(t *testing.T) {
	res := run(t, `
func fill(a[], n, v) {
	var i;
	for (i = 0; i < n; i = i + 1) { a[i] = v; }
	return 0;
}
func main() {
	var buf[8];
	fill(buf, 8, 7);
	return buf[0] + buf[7];
}
`, nil)
	if res.Ret != 14 {
		t.Errorf("Ret = %d, want 14", res.Ret)
	}
}

func TestEntryArrayMutationVisibleToCaller(t *testing.T) {
	mod := compile(t, `func main(a[]) { a[0] = 42; return 0; }`)
	buf := []int64{0, 0}
	if _, err := Run(mod, []Input{ArrayInput(buf)}, Options{}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Errorf("entry array not shared: buf[0] = %d", buf[0])
	}
}

func TestShiftMasking(t *testing.T) {
	res := run(t, `func main(x) { return (x << 1) + (1 << 65); }`,
		[]Input{ScalarInput(3)})
	// 1 << 65 masks to 1 << 1 = 2.
	if res.Ret != 6+2 {
		t.Errorf("Ret = %d, want 8", res.Ret)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src string
		inputs    []Input
		want      string
	}{
		{"div zero", `func main(a) { return 1 / a; }`, []Input{ScalarInput(0)}, "division by zero"},
		{"rem zero", `func main(a) { return 1 % a; }`, []Input{ScalarInput(0)}, "remainder by zero"},
		{"read oob", `func main(a[]) { return a[5]; }`, []Input{ArrayInput(make([]int64, 2))}, "out of bounds"},
		{"write oob", `func main() { var b[2]; b[9] = 1; return 0; }`, nil, "out of bounds"},
		{"neg index", `func main(a[]) { return a[0 - 1]; }`, []Input{ArrayInput(make([]int64, 2))}, "out of bounds"},
	}
	for _, c := range cases {
		mod := compile(t, c.src)
		_, err := Run(mod, c.inputs, Options{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestStepBudget(t *testing.T) {
	mod := compile(t, `func main() { while (1) { } return 0; }`)
	_, err := Run(mod, nil, Options{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("err = %v, want step budget error", err)
	}
}

func TestStackLimit(t *testing.T) {
	mod := compile(t, `func main() { return main(); }`)
	_, err := Run(mod, nil, Options{MaxDepth: 50})
	if err == nil || !strings.Contains(err.Error(), "call stack") {
		t.Fatalf("err = %v, want stack error", err)
	}
}

func TestStepBudgetIsTyped(t *testing.T) {
	mod := compile(t, `func main() { while (1) { } return 0; }`)
	_, err := Run(mod, nil, Options{MaxSteps: 1000})
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want one wrapping ErrStepBudget", err)
	}
}

func TestCellBudget(t *testing.T) {
	// Global arrays are charged before anything is allocated, so a size
	// no machine could hold fails cleanly instead of panicking.
	huge := &ir.Module{
		Funcs:        []*ir.Func{compile(t, `func main() { return 0; }`).Funcs[0]},
		GlobalArrays: []ir.GlobalArray{{Name: "a", Size: 1 << 62}, {Name: "b", Size: 1 << 62}},
	}
	if _, err := Run(huge, nil, Options{}); !errors.Is(err, ErrCellBudget) {
		t.Fatalf("huge globals: err = %v, want ErrCellBudget", err)
	}
	globals := compile(t, `global a[600]; global b[600]; func main() { return 0; }`)
	if _, err := Run(globals, nil, Options{MaxCells: 1000}); !errors.Is(err, ErrCellBudget) {
		t.Fatalf("globals over MaxCells: err = %v, want ErrCellBudget", err)
	}
	if _, err := Run(globals, nil, Options{MaxCells: 1200}); err != nil {
		t.Fatalf("globals at MaxCells: %v", err)
	}
	// Local arrays count while their frame is live: a recursion 10 deep
	// holds 10 frames of 100 cells.
	deep := compile(t, `
func f(n) { var a[100]; a[0] = n; if (n == 0) { return 0; } return f(n - 1) + a[0]; }
func main(n) { var i; var s = 0; for (i = 0; i < 5; i = i + 1) { s = s + f(n); } return s; }
`)
	res, err := Run(deep, []Input{ScalarInput(9)}, Options{MaxCells: 1000})
	if err != nil || res.Ret != 5*45 {
		t.Fatalf("10 live frames in 1000 cells: Ret = %d, err = %v", res.Ret, err)
	}
	if _, err := Run(deep, []Input{ScalarInput(10)}, Options{MaxCells: 1000}); !errors.Is(err, ErrCellBudget) {
		t.Fatalf("11 live frames in 1000 cells: err = %v, want ErrCellBudget", err)
	}
}

func TestPooledFramesStartZeroed(t *testing.T) {
	// Each call must see zero registers and zero local arrays, although
	// the second call reuses the first call's frame.
	res := run(t, `
func f(k) { var a[4]; var x; var r = a[k] + x; a[k] = 7; x = 9; return r; }
func main() { return f(1) + f(1) + f(2); }
`, nil)
	if res.Ret != 0 {
		t.Fatalf("Ret = %d, want 0: a reused frame leaked state", res.Ret)
	}
	// Lowering initializes every variable it declares, so only hand-built
	// IR reads a register before writing it: g returns r1 + p, then sets
	// r1 = p, which the next call must not see.
	g := ir.NewFuncBuilder("g", []ir.ParamKind{ir.ParamScalar})
	g.ReserveRegs(3)
	g.EmitBin(ir.Reg(2), ir.OpAdd, ir.RegVal(1), ir.RegVal(0))
	g.EmitMove(ir.Reg(1), ir.RegVal(0))
	g.Ret(ir.RegVal(2))
	m := ir.NewFuncBuilder("main", nil)
	m.ReserveRegs(2)
	m.EmitCall(ir.Reg(0), 0, []ir.Arg{ir.ScalarArg(ir.ConstVal(5))})
	m.EmitCall(ir.Reg(1), 0, []ir.Arg{ir.ScalarArg(ir.ConstVal(5))})
	m.EmitBin(ir.Reg(0), ir.OpAdd, ir.RegVal(0), ir.RegVal(1))
	m.Ret(ir.RegVal(0))
	mod := &ir.Module{Funcs: []*ir.Func{g.Func(), m.Func()}, EntryFunc: 1}
	if res, err := Run(mod, nil, Options{}); err != nil || res.Ret != 10 {
		t.Fatalf("Ret = %d, err = %v, want 10: a reused frame kept a register", res.Ret, err)
	}
}

func TestContextCancelsRun(t *testing.T) {
	mod := compile(t, `func main() { while (1) { } return 0; }`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(mod, nil, Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Run(mod, nil, Options{Context: ctx, MaxSteps: 1 << 62})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("run took %v to notice its deadline", d)
	}
	// A live context changes nothing.
	res, err := Run(compile(t, `func main(n) { var s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }`),
		[]Input{ScalarInput(5000)}, Options{Context: context.Background()})
	if err != nil || res.Ret != 5000*5001/2 {
		t.Fatalf("Ret = %d, err = %v", res.Ret, err)
	}
}

func TestMalformedIRFailsWhenExecuted(t *testing.T) {
	// An instruction the interpreter cannot execute fails the run only if
	// it is reached, as the tree walker did.
	b := ir.NewFuncBuilder("main", []ir.ParamKind{ir.ParamScalar})
	bad := b.NewBlock("bad")
	good := b.NewBlock("good")
	b.CondBr(ir.RegVal(0), bad, good)
	b.SetInsert(bad)
	b.EmitMove(ir.Reg(0), ir.RegVal(ir.Reg(42))) // register out of range
	b.Ret(ir.RegVal(0))
	b.SetInsert(good)
	b.Ret(ir.ConstVal(1))
	mod := &ir.Module{Funcs: []*ir.Func{b.Func()}}
	if res, err := Run(mod, []Input{ScalarInput(0)}, Options{}); err != nil || res.Ret != 1 {
		t.Fatalf("bad block not taken: Ret = %d, err = %v", res.Ret, err)
	}
	if _, err := Run(mod, []Input{ScalarInput(1)}, Options{}); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("bad block taken: err = %v, want a malformed-instruction error", err)
	}
	// The same for a terminator with no successors to take.
	mod.Funcs[0].Blocks[bad] = &ir.Block{ID: bad, Term: ir.Terminator{Kind: ir.TermSwitch}}
	if res, err := Run(mod, []Input{ScalarInput(0)}, Options{}); err != nil || res.Ret != 1 {
		t.Fatalf("bad block not taken: Ret = %d, err = %v", res.Ret, err)
	}
	if _, err := Run(mod, []Input{ScalarInput(1)}, Options{}); err == nil || !strings.Contains(err.Error(), "malformed terminator") {
		t.Fatalf("bad block taken: err = %v, want a malformed-terminator error", err)
	}
	// A function with no blocks cannot be entered, as the entry or as a
	// callee.
	empty := &ir.Func{Name: "empty"}
	if _, err := Run(&ir.Module{Funcs: []*ir.Func{empty}}, nil, Options{}); err == nil {
		t.Fatal("entry with no blocks: no error")
	}
	c := ir.NewFuncBuilder("main", nil)
	c.ReserveRegs(1)
	c.EmitCall(ir.Reg(0), 1, nil)
	c.Ret(ir.RegVal(0))
	if _, err := Run(&ir.Module{Funcs: []*ir.Func{c.Func(), empty}}, nil, Options{}); err == nil || !strings.Contains(err.Error(), "no blocks") {
		t.Fatalf("call to a function with no blocks: err = %v", err)
	}
}

func TestEntryArgumentValidation(t *testing.T) {
	mod := compile(t, `func main(a, b[]) { return a + b[0]; }`)
	if _, err := Run(mod, []Input{ScalarInput(1)}, Options{}); err == nil {
		t.Error("expected arity error")
	}
	if _, err := Run(mod, []Input{ArrayInput(nil), ScalarInput(1)}, Options{}); err == nil {
		t.Error("expected shape error (array where scalar expected)")
	}
	if _, err := Run(mod, []Input{ScalarInput(1), ScalarInput(2)}, Options{}); err == nil {
		t.Error("expected shape error (scalar where array expected)")
	}
}

func TestProfileEdgeCounts(t *testing.T) {
	mod := compile(t, `
func main(n) {
	var i;
	var even = 0;
	for (i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) { even = even + 1; }
	}
	return even;
}
`)
	prof := NewProfile(mod)
	res, err := Run(mod, []Input{ScalarInput(10)}, Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 5 {
		t.Fatalf("Ret = %d, want 5", res.Ret)
	}
	f := mod.Funcs[mod.EntryFunc]
	fp := prof.Funcs[mod.EntryFunc]
	// Invariants: block count equals the sum of outgoing edge counts for
	// every non-return block; entry executes exactly once.
	if fp.BlockCounts[0] != 1 {
		t.Errorf("entry executed %d times", fp.BlockCounts[0])
	}
	for bi, b := range f.Blocks {
		if b.Term.Kind == ir.TermRet {
			continue
		}
		var sum int64
		for _, c := range fp.EdgeCounts[bi] {
			sum += c
		}
		if sum != fp.BlockCounts[bi] {
			t.Errorf("block b%d: edge sum %d != block count %d", bi, sum, fp.BlockCounts[bi])
		}
	}
	// The loop-head conditional must have been taken 10 times one way and
	// once the other.
	foundLoopHead := false
	for bi, b := range f.Blocks {
		if b.Term.Kind != ir.TermCondBr {
			continue
		}
		a, c := fp.EdgeCounts[bi][0], fp.EdgeCounts[bi][1]
		if (a == 10 && c == 1) || (a == 1 && c == 10) {
			foundLoopHead = true
		}
	}
	if !foundLoopHead {
		t.Error("no conditional with 10/1 edge split found (loop head expected)")
	}
	if got := prof.BranchSitesTouched(mod); got < 2 {
		t.Errorf("BranchSitesTouched = %d, want >= 2", got)
	}
	if got := BranchSitesStatic(mod); got < 2 {
		t.Errorf("BranchSitesStatic = %d, want >= 2", got)
	}
}

func TestProfileAccumulatesAcrossRuns(t *testing.T) {
	mod := compile(t, `func main(n) { if (n > 0) { return 1; } return 0; }`)
	prof := NewProfile(mod)
	for i := 0; i < 3; i++ {
		if _, err := Run(mod, []Input{ScalarInput(int64(i))}, Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
	}
	if prof.Funcs[mod.EntryFunc].BlockCounts[0] != 3 {
		t.Errorf("entry count = %d, want 3", prof.Funcs[mod.EntryFunc].BlockCounts[0])
	}
}

func TestProfileMerge(t *testing.T) {
	mod := compile(t, `func main(n) { if (n > 0) { return 1; } return 0; }`)
	p1 := NewProfile(mod)
	p2 := NewProfile(mod)
	if _, err := Run(mod, []Input{ScalarInput(1)}, Options{Profile: p1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(mod, []Input{ScalarInput(0)}, Options{Profile: p2}); err != nil {
		t.Fatal(err)
	}
	if err := p1.Merge(p2); err != nil {
		t.Fatal(err)
	}
	if p1.Funcs[mod.EntryFunc].BlockCounts[0] != 2 {
		t.Errorf("merged entry count = %d, want 2", p1.Funcs[mod.EntryFunc].BlockCounts[0])
	}
}

func TestTraceCallback(t *testing.T) {
	mod := compile(t, `
func helper(x) { return x + 1; }
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) { s = helper(s); }
	return s;
}
`)
	var events []int
	res, err := Run(mod, []Input{ScalarInput(3)}, Options{
		Trace: func(fn, blk int) { events = append(events, fn*1000+blk) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 3 {
		t.Fatalf("Ret = %d", res.Ret)
	}
	if len(events) == 0 {
		t.Fatal("trace callback never fired")
	}
	// First event is the entry block of main.
	if events[0] != mod.EntryFunc*1000 {
		t.Errorf("first trace event = %d, want entry of main", events[0])
	}
	// helper's entry must appear exactly 3 times.
	helperIdx := mod.FuncIndex("helper")
	count := 0
	for _, e := range events {
		if e == helperIdx*1000 {
			count++
		}
	}
	if count != 3 {
		t.Errorf("helper entry traced %d times, want 3", count)
	}
}

func TestHottestSuccessor(t *testing.T) {
	mod := compile(t, `
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
`)
	prof := NewProfile(mod)
	if _, err := Run(mod, []Input{ScalarInput(100)}, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	f := mod.Funcs[mod.EntryFunc]
	fp := prof.Funcs[mod.EntryFunc]
	for bi, b := range f.Blocks {
		switch edges := fp.EdgeCounts[bi]; b.Term.Kind {
		case ir.TermCondBr:
			if hot := slices.Max(edges); hot < 100 {
				t.Errorf("loop-head b%d hottest successor count %d, want the 100-count edge", bi, hot)
			}
		case ir.TermRet:
			if len(edges) != 0 {
				t.Errorf("ret block b%d has successor counts %v", bi, edges)
			}
		}
	}
}

func TestDynCounters(t *testing.T) {
	res := run(t, `
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) {
		switch (i % 3) {
		case 0: s = s + 1;
		case 1: s = s + 2;
		default: s = s + 3;
		}
	}
	return s;
}
`, []Input{ScalarInput(9)})
	if res.DynSwitch != 9 {
		t.Errorf("DynSwitch = %d, want 9", res.DynSwitch)
	}
	if res.DynCond != 10 {
		t.Errorf("DynCond = %d, want 10 (loop head)", res.DynCond)
	}
	if res.DynBranches() != res.DynCond+res.DynSwitch+res.DynBr {
		t.Error("DynBranches arithmetic wrong")
	}
	// s: i=0..8 -> 1,2,3,1,2,3,1,2,3 = 18
	if res.Ret != 18 {
		t.Errorf("Ret = %d, want 18", res.Ret)
	}
}

// TestEntryInputs binds data and n to each accepted entry signature and
// rejects any other.
func TestEntryInputs(t *testing.T) {
	data := []int64{4, 5, 6}
	cases := []struct {
		name, src string
		want      []Input
	}{
		{"()", "func main() { return 1; }", nil},
		{"(n)", "func main(n) { return n; }", []Input{ScalarInput(2)}},
		{"(input[], n)", "func main(a[], n) { return a[0] + n; }", []Input{ArrayInput(data), ScalarInput(2)}},
	}
	for _, c := range cases {
		got, err := EntryInputs(compile(t, c.src), data, 2)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: %d inputs, want %d", c.name, len(got), len(c.want))
			continue
		}
		for i := range got {
			if got[i].IsArray != c.want[i].IsArray || got[i].Scalar != c.want[i].Scalar || !slices.Equal(got[i].Array, c.want[i].Array) {
				t.Errorf("%s: input %d = %+v, want %+v", c.name, i, got[i], c.want[i])
			}
		}
	}
	_, err := EntryInputs(compile(t, "func main(n, m) { return n + m; }"), data, 2)
	if err == nil || err.Error() != "entry main must have signature (), (n) or (input[], n)" {
		t.Errorf("(n, m): err = %v, want the signature error", err)
	}
}
