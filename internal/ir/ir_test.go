package ir

import (
	"strings"
	"testing"
)

// buildDiamond constructs a minimal module with one function shaped like:
//
//	entry -> (then | else) -> join -> ret
func buildDiamond(t *testing.T) *Module {
	t.Helper()
	b := NewFuncBuilder("main", []ParamKind{ParamScalar})
	x := Reg(0)
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	join := b.NewBlock("join")
	res := b.NewReg()
	b.CondBr(RegVal(x), then, els)
	b.SetInsert(then)
	b.EmitConst(res, 1)
	b.Br(join)
	b.SetInsert(els)
	b.EmitConst(res, 2)
	b.Br(join)
	b.SetInsert(join)
	b.EmitOut(RegVal(res))
	b.Ret(RegVal(res))
	m := &Module{Funcs: []*Func{b.Func()}}
	if err := m.Verify(); err != nil {
		t.Fatalf("diamond module does not verify: %v", err)
	}
	return m
}

func TestBuilderDiamond(t *testing.T) {
	m := buildDiamond(t)
	f := m.Funcs[0]
	if len(f.Blocks) != 4 {
		t.Fatalf("expected 4 blocks, got %d", len(f.Blocks))
	}
	if f.Blocks[0].Term.Kind != TermCondBr {
		t.Fatalf("entry terminator = %v, want condbr", f.Blocks[0].Term.Kind)
	}
	preds := f.Preds()
	if len(preds[3]) != 2 {
		t.Fatalf("join block should have 2 preds, got %v", preds[3])
	}
	if len(preds[0]) != 0 {
		t.Fatalf("entry should have no preds, got %v", preds[0])
	}
}

func TestValueString(t *testing.T) {
	if got := ConstVal(-7).String(); got != "-7" {
		t.Errorf("ConstVal string = %q", got)
	}
	if got := RegVal(3).String(); got != "r3" {
		t.Errorf("RegVal string = %q", got)
	}
}

func TestBlockSize(t *testing.T) {
	b := &Block{Instrs: make([]Instr, 5)}
	b.Term = Terminator{Kind: TermBr, Succs: []int{0}}
	if got := b.Size(); got != 5 {
		t.Errorf("Br block size = %d, want 5 (fall-through candidate)", got)
	}
	b.Term = Terminator{Kind: TermCondBr, Succs: []int{0, 1}}
	if got := b.Size(); got != 6 {
		t.Errorf("CondBr block size = %d, want 6", got)
	}
	b.Term = Terminator{Kind: TermRet}
	if got := b.Size(); got != 6 {
		t.Errorf("Ret block size = %d, want 6", got)
	}
}

func TestParamAccounting(t *testing.T) {
	f := &Func{Params: []ParamKind{ParamScalar, ParamArray, ParamScalar, ParamArray}}
	if f.NumArrayParams() != 2 || f.NumScalarParams() != 2 {
		t.Fatalf("param counts wrong: %d arrays, %d scalars", f.NumArrayParams(), f.NumScalarParams())
	}
}

func TestVerifyCatchesBadSuccessor(t *testing.T) {
	m := buildDiamond(t)
	m.Funcs[0].Blocks[1].Term.Succs[0] = 99
	if err := m.Verify(); err == nil {
		t.Fatal("expected verify error for out-of-range successor")
	}
}

func TestVerifyCatchesBadRegister(t *testing.T) {
	m := buildDiamond(t)
	m.Funcs[0].Blocks[1].Instrs[0].Dst = Reg(1000)
	if err := m.Verify(); err == nil {
		t.Fatal("expected verify error for out-of-range register")
	}
}

func TestVerifyCatchesDuplicateSwitchCases(t *testing.T) {
	b := NewFuncBuilder("f", nil)
	r := b.NewReg()
	b.EmitConst(r, 0)
	t1 := b.NewBlock("a")
	t2 := b.NewBlock("b")
	d := b.NewBlock("d")
	b.Switch(RegVal(r), []int64{1, 1}, []int{t1, t2}, d)
	for _, id := range []int{t1, t2, d} {
		b.SetInsert(id)
		b.Ret(ConstVal(0))
	}
	m := &Module{Funcs: []*Func{b.Func()}}
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "duplicate switch case") {
		t.Fatalf("expected duplicate-case error, got %v", err)
	}
}

func TestVerifyCatchesCondBrSameTargets(t *testing.T) {
	b := NewFuncBuilder("f", nil)
	r := b.NewReg()
	b.EmitConst(r, 0)
	t1 := b.NewBlock("a")
	b.CondBr(RegVal(r), t1, t1)
	b.SetInsert(t1)
	b.Ret(ConstVal(0))
	m := &Module{Funcs: []*Func{b.Func()}}
	if err := m.Verify(); err == nil {
		t.Fatal("expected error for condbr with identical successors")
	}
}

func TestVerifyCatchesCallArityMismatch(t *testing.T) {
	callee := NewFuncBuilder("callee", []ParamKind{ParamScalar, ParamArray})
	callee.Ret(ConstVal(0))
	caller := NewFuncBuilder("caller", nil)
	r := caller.NewReg()
	caller.EmitCall(r, 0, []Arg{ScalarArg(ConstVal(1))}) // missing array arg
	caller.Ret(ConstVal(0))
	m := &Module{Funcs: []*Func{callee.Func(), caller.Func()}}
	if err := m.Verify(); err == nil {
		t.Fatal("expected arity error")
	}
	// And a shape mismatch: scalar passed where array expected.
	caller2 := NewFuncBuilder("caller2", nil)
	r2 := caller2.NewReg()
	caller2.EmitCall(r2, 0, []Arg{ScalarArg(ConstVal(1)), ScalarArg(ConstVal(2))})
	caller2.Ret(ConstVal(0))
	m2 := &Module{Funcs: []*Func{callee.Func(), caller2.Func()}}
	if err := m2.Verify(); err == nil {
		t.Fatal("expected array/scalar mismatch error")
	}
}

func TestVerifyCatchesBadArrayRef(t *testing.T) {
	b := NewFuncBuilder("f", nil)
	r := b.NewReg()
	b.EmitLoad(r, ArrayRef{Index: 5}, ConstVal(0))
	b.Ret(ConstVal(0))
	m := &Module{Funcs: []*Func{b.Func()}}
	if err := m.Verify(); err == nil {
		t.Fatal("expected error for out-of-range frame array")
	}
	b2 := NewFuncBuilder("g", nil)
	r2 := b2.NewReg()
	b2.EmitLoad(r2, ArrayRef{Global: true, Index: 0}, ConstVal(0))
	b2.Ret(ConstVal(0))
	m2 := &Module{Funcs: []*Func{b2.Func()}}
	if err := m2.Verify(); err == nil {
		t.Fatal("expected error for out-of-range global array")
	}
}

func TestBuilderPanicsOnDoubleTerminate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewFuncBuilder("f", nil)
	b.Ret(ConstVal(0))
	b.Ret(ConstVal(0))
}

func TestBuilderPanicsOnUnterminatedBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewFuncBuilder("f", nil)
	_ = b.NewBlock("dangling")
	b.Ret(ConstVal(0))
	b.Func()
}

func TestLocalArrayAllocation(t *testing.T) {
	b := NewFuncBuilder("f", []ParamKind{ParamArray})
	sizes := []int{10, 20}
	b.SetLocalArraySizes(sizes)
	sizes[0] = 99 // the builder keeps its own copy
	// Local arrays come after the array params: frame arrays 1 and 2.
	b.EmitStore(ArrayRef{Index: 2}, ConstVal(0), ConstVal(1))
	b.Ret(ConstVal(0))
	f := b.Func()
	if len(f.LocalArraySizes) != 2 || f.LocalArraySizes[0] != 10 || f.LocalArraySizes[1] != 20 {
		t.Fatalf("local array sizes wrong: %v", f.LocalArraySizes)
	}
	m := &Module{Funcs: []*Func{f}}
	if err := m.Verify(); err != nil {
		t.Fatalf("store to the last local array rejected: %v", err)
	}
	f.Blocks[0].Instrs[0].Arr.Index = 3
	if err := m.Verify(); err == nil {
		t.Fatal("store past the last local array accepted")
	}
}

func TestPrintAndDot(t *testing.T) {
	m := buildDiamond(t)
	text := m.String()
	for _, want := range []string{"func f0 main(int)", "condbr r0, b1, b2", "ret r1"} {
		if !strings.Contains(text, want) {
			t.Errorf("module text missing %q:\n%s", want, text)
		}
	}
	dot := m.Funcs[0].Dot(func(blk, si int) (int64, bool) { return int64(blk*10 + si), true })
	for _, want := range []string{"digraph", "b0 -> b1", "b0 -> b2", `label="1"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestModuleFuncIndex(t *testing.T) {
	m := buildDiamond(t)
	if got := m.FuncIndex("main"); got != 0 {
		t.Errorf("FuncIndex(main) = %d", got)
	}
	if got := m.FuncIndex("nope"); got != -1 {
		t.Errorf("FuncIndex(nope) = %d", got)
	}
}
