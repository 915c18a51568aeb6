// Package ir defines the intermediate representation that branch
// alignment operates on: functions made of basic blocks over virtual
// registers, terminated by unconditional branches, two-way conditional
// branches, multiway switches (the "register branch" class of the paper's
// machine model), or returns.
//
// The representation is deliberately un-SSA: registers are mutable slots,
// which keeps lowering (package lower) and interpretation (package
// interp) simple while still producing realistic control-flow graphs.
package ir

import "fmt"

// Reg names a virtual register (a mutable int64 slot) within a function.
type Reg int

// Value is an instruction operand: either a constant or a register.
type Value struct {
	IsConst bool
	Const   int64
	Reg     Reg
}

// ConstVal returns a constant operand.
func ConstVal(c int64) Value { return Value{IsConst: true, Const: c} }

// RegVal returns a register operand.
func RegVal(r Reg) Value { return Value{Reg: r} }

func (v Value) String() string {
	if v.IsConst {
		return fmt.Sprintf("%d", v.Const)
	}
	return fmt.Sprintf("r%d", v.Reg)
}

// Op enumerates binary and unary operators.
type Op int

// Binary and unary operators. Comparison operators yield 0 or 1.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpNeg // unary minus
	OpNot // logical not: 1 if operand == 0, else 0
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpNeg: "neg", OpNot: "not",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ArrayRef names an array: either a module-level global array or an entry
// in the function's frame array list (array parameters first, then local
// arrays).
type ArrayRef struct {
	Global bool
	Index  int
}

func (a ArrayRef) String() string {
	if a.Global {
		return fmt.Sprintf("g[%d]", a.Index)
	}
	return fmt.Sprintf("a[%d]", a.Index)
}

// InstrKind discriminates Instr.
type InstrKind int

// Instruction kinds.
const (
	InstrConst  InstrKind = iota // Dst = A (A constant)
	InstrMove                    // Dst = A
	InstrBin                     // Dst = A Op B
	InstrUn                      // Dst = Op A
	InstrLoad                    // Dst = Arr[A]
	InstrStore                   // Arr[A] = B
	InstrGLoad                   // Dst = global scalar GIndex
	InstrGStore                  // global scalar GIndex = A
	InstrCall                    // Dst = Callee(Args...)
	InstrOut                     // append A to the program output stream
)

// Arg is a call argument: a scalar value or an array reference from the
// caller's frame.
type Arg struct {
	IsArray bool
	Val     Value
	Arr     ArrayRef
}

// ScalarArg wraps a Value as a call argument.
func ScalarArg(v Value) Arg { return Arg{Val: v} }

// ArrayArg wraps an ArrayRef as a call argument.
func ArrayArg(a ArrayRef) Arg { return Arg{IsArray: true, Arr: a} }

// Instr is a non-terminator instruction.
type Instr struct {
	Kind   InstrKind
	Dst    Reg
	Op     Op
	A, B   Value
	Arr    ArrayRef
	GIndex int
	Callee int // function index within the module
	Args   []Arg
}

func (in Instr) String() string {
	switch in.Kind {
	case InstrConst, InstrMove:
		return fmt.Sprintf("r%d = %s", in.Dst, in.A)
	case InstrBin:
		return fmt.Sprintf("r%d = %s %s, %s", in.Dst, in.Op, in.A, in.B)
	case InstrUn:
		return fmt.Sprintf("r%d = %s %s", in.Dst, in.Op, in.A)
	case InstrLoad:
		return fmt.Sprintf("r%d = %s[%s]", in.Dst, in.Arr, in.A)
	case InstrStore:
		return fmt.Sprintf("%s[%s] = %s", in.Arr, in.A, in.B)
	case InstrGLoad:
		return fmt.Sprintf("r%d = gs[%d]", in.Dst, in.GIndex)
	case InstrGStore:
		return fmt.Sprintf("gs[%d] = %s", in.GIndex, in.A)
	case InstrCall:
		return fmt.Sprintf("r%d = call f%d(%d args)", in.Dst, in.Callee, len(in.Args))
	case InstrOut:
		return fmt.Sprintf("out %s", in.A)
	}
	return "instr?"
}

// TermKind discriminates Terminator.
type TermKind int

// Terminator kinds. The mapping to the machine model's branch classes
// (package machine) is: TermBr blocks either fall through (no branch) or
// need an inserted unconditional jump; TermCondBr is a conditional
// branch; TermSwitch is a multiway/register branch; TermRet leaves the
// procedure and is layout-independent.
const (
	TermBr TermKind = iota
	TermCondBr
	TermSwitch
	TermRet
)

// Terminator ends a basic block.
type Terminator struct {
	Kind TermKind
	// Cond is the condition for TermCondBr (nonzero takes Succs[0]) and
	// the scrutinee for TermSwitch.
	Cond Value
	// Val is the return value for TermRet.
	Val Value
	// Succs lists successor block IDs. TermBr: one target. TermCondBr:
	// [then, else]. TermSwitch: one target per case followed by the
	// default target. TermRet: empty.
	Succs []int
	// Cases holds the switch case values; len(Cases) == len(Succs)-1.
	Cases []int64
}

func (t Terminator) String() string {
	switch t.Kind {
	case TermBr:
		return fmt.Sprintf("br b%d", t.Succs[0])
	case TermCondBr:
		return fmt.Sprintf("condbr %s, b%d, b%d", t.Cond, t.Succs[0], t.Succs[1])
	case TermSwitch:
		return fmt.Sprintf("switch %s, %d cases, default b%d", t.Cond, len(t.Cases), t.Succs[len(t.Succs)-1])
	case TermRet:
		return fmt.Sprintf("ret %s", t.Val)
	}
	return "term?"
}

// Block is a basic block.
type Block struct {
	ID     int
	Name   string
	Instrs []Instr
	Term   Terminator
}

// Size returns the block's size in instruction slots, counting the
// terminator when it occupies an instruction (returns and conditional or
// multiway branches always do; a TermBr may be elided by layout, so it is
// not counted here — package layout adds fixup jumps explicitly).
func (b *Block) Size() int {
	n := len(b.Instrs)
	switch b.Term.Kind {
	case TermCondBr, TermSwitch, TermRet:
		n++
	}
	return n
}

// ParamKind distinguishes scalar from array parameters.
type ParamKind int

// Parameter kinds.
const (
	ParamScalar ParamKind = iota
	ParamArray
)

// Func is a function: a CFG of basic blocks. Block 0 is the entry block.
type Func struct {
	Name   string
	Params []ParamKind
	// NumRegs is the register-file size. Scalar parameters are bound to
	// registers 0..k-1 in parameter order (skipping array parameters).
	NumRegs int
	// LocalArraySizes gives the sizes of fresh arrays allocated per call.
	// In an ArrayRef with Global == false, indices < NumArrayParams()
	// refer to array parameters in order; index NumArrayParams()+i refers
	// to LocalArraySizes[i].
	LocalArraySizes []int
	Blocks          []*Block
}

// NumArrayParams counts the array parameters of f.
func (f *Func) NumArrayParams() int {
	n := 0
	for _, p := range f.Params {
		if p == ParamArray {
			n++
		}
	}
	return n
}

// NumScalarParams counts the scalar parameters of f.
func (f *Func) NumScalarParams() int {
	return len(f.Params) - f.NumArrayParams()
}

// Preds computes the predecessor lists of every block.
func (f *Func) Preds() [][]int {
	preds := make([][]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Term.Succs {
			preds[s] = append(preds[s], b.ID)
		}
	}
	return preds
}

// GlobalArray declares a module-level array.
type GlobalArray struct {
	Name string
	Size int
}

// Module is a compiled program: functions plus global storage
// declarations. Funcs[EntryFunc] is the program entry point.
type Module struct {
	Funcs        []*Func
	EntryFunc    int
	GlobalNames  []string // scalar global names, index = GIndex
	GlobalArrays []GlobalArray
}

// FuncIndex returns the index of the function with the given name, or -1.
func (m *Module) FuncIndex(name string) int {
	for i, f := range m.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}
