package ir

import (
	"strings"
	"testing"
)

// buildKitchenSink exercises every builder emission and every
// instruction/terminator String form.
func buildKitchenSink(t *testing.T) *Module {
	t.Helper()
	callee := NewFuncBuilder("callee", []ParamKind{ParamScalar, ParamArray})
	callee.Ret(RegVal(0))

	b := NewFuncBuilder("sink", []ParamKind{ParamScalar})
	b.ReserveRegs(8)
	b.SetLocalArraySizes([]int{4, 8})
	arr := ArrayRef{Index: 0}
	x := Reg(1)
	y := Reg(2)
	b.EmitConst(x, 42)
	b.EmitMove(y, RegVal(x))
	b.EmitBin(y, OpAdd, RegVal(x), ConstVal(1))
	b.EmitUn(y, OpNeg, RegVal(x))
	b.EmitLoad(y, arr, ConstVal(0))
	b.EmitStore(arr, ConstVal(1), RegVal(y))
	b.EmitGLoad(y, 0)
	b.EmitGStore(0, RegVal(y))
	b.EmitCall(y, 0, []Arg{ScalarArg(RegVal(x)), ArrayArg(arr)})
	b.EmitOut(RegVal(y))
	swA := b.NewBlock("swA")
	swB := b.NewBlock("swB")
	join := b.NewBlock("join")
	last := b.NewBlock("last")
	b.Switch(RegVal(y), []int64{1, 2}, []int{swA, swB}, join)
	b.SetInsert(swA)
	if b.Terminated() {
		t.Fatal("fresh block reported terminated")
	}
	b.CondBr(RegVal(y), join, last)
	b.SetInsert(swB)
	b.Br(join)
	b.SetInsert(join)
	b.Br(last)
	b.SetInsert(last)
	b.Ret(ConstVal(0))

	return &Module{
		Funcs:        []*Func{callee.Func(), b.Func()},
		EntryFunc:    1,
		GlobalNames:  []string{"g0"},
		GlobalArrays: []GlobalArray{{Name: "ga", Size: 16}},
	}
}

func TestKitchenSinkVerifiesAndPrints(t *testing.T) {
	m := buildKitchenSink(t)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	text := m.String()
	for _, want := range []string{
		"r2 = r1", "r2 = add r1, 1", "r2 = neg r1",
		"a[0][0]", "gs[0]", "call f0(2 args)", "out r2",
		"switch r2, 2 cases", "condbr", "br b", "ret 0",
		"global gs[0] g0", "global g[0] ga[16]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("module text missing %q:\n%s", want, text)
		}
	}
}

func TestOpAndTermStrings(t *testing.T) {
	ops := map[Op]string{
		OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
		OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
		OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
		OpNeg: "neg", OpNot: "not",
	}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown op string %q", got)
	}
	if got := (ArrayRef{Global: true, Index: 3}).String(); got != "g[3]" {
		t.Errorf("global array ref string %q", got)
	}
	if got := (Terminator{Kind: TermRet, Val: ConstVal(5)}).String(); got != "ret 5" {
		t.Errorf("ret string %q", got)
	}
}

func TestVerifyInstrErrorPaths(t *testing.T) {
	mk := func(mutate func(m *Module)) error {
		m := buildKitchenSink(t)
		mutate(m)
		return m.Verify()
	}
	sink := func(m *Module) *Func { return m.Funcs[1] }
	cases := []struct {
		name   string
		mutate func(m *Module)
	}{
		{"const with reg operand", func(m *Module) {
			sink(m).Blocks[0].Instrs[0] = Instr{Kind: InstrConst, Dst: 1, A: RegVal(0)}
		}},
		{"bin with unary op", func(m *Module) {
			sink(m).Blocks[0].Instrs[2].Op = OpNeg
		}},
		{"un with binary op", func(m *Module) {
			sink(m).Blocks[0].Instrs[3].Op = OpAdd
		}},
		{"gload out of range", func(m *Module) {
			sink(m).Blocks[0].Instrs[6].GIndex = 7
		}},
		{"gstore out of range", func(m *Module) {
			sink(m).Blocks[0].Instrs[7].GIndex = -1
		}},
		{"callee out of range", func(m *Module) {
			sink(m).Blocks[0].Instrs[8].Callee = 9
		}},
		{"bad value reg", func(m *Module) {
			sink(m).Blocks[0].Instrs[1].A = RegVal(100)
		}},
		{"store bad index value", func(m *Module) {
			sink(m).Blocks[0].Instrs[5].A = RegVal(-1)
		}},
		{"unknown instr kind", func(m *Module) {
			sink(m).Blocks[0].Instrs[0].Kind = InstrKind(99)
		}},
		{"br wrong succ count", func(m *Module) {
			for _, b := range sink(m).Blocks {
				if b.Term.Kind == TermBr {
					b.Term.Succs = nil
					return
				}
			}
		}},
		{"switch succ mismatch", func(m *Module) {
			for _, b := range sink(m).Blocks {
				if b.Term.Kind == TermSwitch {
					b.Term.Succs = b.Term.Succs[:1]
					return
				}
			}
		}},
		{"switch no cases", func(m *Module) {
			for _, b := range sink(m).Blocks {
				if b.Term.Kind == TermSwitch {
					b.Term.Cases = nil
					b.Term.Succs = b.Term.Succs[:1]
					return
				}
			}
		}},
		{"ret with successors", func(m *Module) {
			last := sink(m).Blocks[len(sink(m).Blocks)-1]
			last.Term.Succs = []int{0}
		}},
		{"unknown term kind", func(m *Module) {
			sink(m).Blocks[0].Term.Kind = TermKind(42)
		}},
		{"nil block", func(m *Module) {
			sink(m).Blocks[1] = nil
		}},
		{"bad block id", func(m *Module) {
			sink(m).Blocks[1].ID = 9
		}},
		{"bad entry index", func(m *Module) {
			m.EntryFunc = 5
		}},
	}
	for _, c := range cases {
		if err := mk(c.mutate); err == nil {
			t.Errorf("%s: expected verify error", c.name)
		}
	}
	if err := (&Module{}).Verify(); err == nil {
		t.Error("empty module should not verify")
	}
	if err := (&Module{Funcs: []*Func{{Name: "e"}}}).Verify(); err == nil {
		t.Error("function without blocks should not verify")
	}
}
