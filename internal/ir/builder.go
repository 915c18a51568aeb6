package ir

import "fmt"

// FuncBuilder incrementally constructs a Func. It manages block creation,
// register allocation and terminator placement; package lower and tests
// use it to assemble CFGs without tracking indices by hand.
type FuncBuilder struct {
	f      *Func
	cur    *Block
	sealed map[int]bool
}

// NewFuncBuilder starts a function with the given name and parameters.
// Scalar parameters are pre-assigned registers 0..k-1 in order; array
// parameters occupy frame array slots 0..m-1 in order. The entry block is
// created and selected.
func NewFuncBuilder(name string, params []ParamKind) *FuncBuilder {
	f := &Func{Name: name, Params: append([]ParamKind(nil), params...)}
	f.NumRegs = f.NumScalarParams()
	b := &FuncBuilder{f: f, sealed: map[int]bool{}}
	entry := b.NewBlock("entry")
	b.SetInsert(entry)
	return b
}

// Func finalizes and returns the function. Every block must have been
// terminated.
func (b *FuncBuilder) Func() *Func {
	for _, blk := range b.f.Blocks {
		if !b.sealed[blk.ID] {
			panic(fmt.Sprintf("ir: builder: block b%d (%s) of %s has no terminator", blk.ID, blk.Name, b.f.Name))
		}
	}
	return b.f
}

// NewBlock appends an empty block and returns its ID.
func (b *FuncBuilder) NewBlock(name string) int {
	blk := &Block{ID: len(b.f.Blocks), Name: name}
	b.f.Blocks = append(b.f.Blocks, blk)
	return blk.ID
}

// SetInsert selects the block that subsequent emissions append to.
func (b *FuncBuilder) SetInsert(id int) {
	b.cur = b.f.Blocks[id]
}

// NewReg allocates a fresh virtual register.
func (b *FuncBuilder) NewReg() Reg {
	r := Reg(b.f.NumRegs)
	b.f.NumRegs++
	return r
}

// ReserveRegs grows the register file to at least n registers, for
// callers (like package lower) that pre-assign register numbers to named
// variables.
func (b *FuncBuilder) ReserveRegs(n int) {
	if n > b.f.NumRegs {
		b.f.NumRegs = n
	}
}

// SetLocalArraySizes installs the per-call array sizes, a copy of
// sizes, for callers that pre-assign frame slots: local array i is
// ArrayRef{Index: NumArrayParams()+i}.
func (b *FuncBuilder) SetLocalArraySizes(sizes []int) {
	b.f.LocalArraySizes = append([]int(nil), sizes...)
}

func (b *FuncBuilder) emit(in Instr) {
	if b.sealed[b.cur.ID] {
		panic(fmt.Sprintf("ir: builder: emitting into terminated block b%d of %s", b.cur.ID, b.f.Name))
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
}

// EmitConst emits dst = c.
func (b *FuncBuilder) EmitConst(dst Reg, c int64) {
	b.emit(Instr{Kind: InstrConst, Dst: dst, A: ConstVal(c)})
}

// EmitMove emits dst = v.
func (b *FuncBuilder) EmitMove(dst Reg, v Value) {
	b.emit(Instr{Kind: InstrMove, Dst: dst, A: v})
}

// EmitBin emits dst = x op y.
func (b *FuncBuilder) EmitBin(dst Reg, op Op, x, y Value) {
	b.emit(Instr{Kind: InstrBin, Dst: dst, Op: op, A: x, B: y})
}

// EmitUn emits dst = op x.
func (b *FuncBuilder) EmitUn(dst Reg, op Op, x Value) {
	b.emit(Instr{Kind: InstrUn, Dst: dst, Op: op, A: x})
}

// EmitLoad emits dst = arr[idx].
func (b *FuncBuilder) EmitLoad(dst Reg, arr ArrayRef, idx Value) {
	b.emit(Instr{Kind: InstrLoad, Dst: dst, Arr: arr, A: idx})
}

// EmitStore emits arr[idx] = v.
func (b *FuncBuilder) EmitStore(arr ArrayRef, idx, v Value) {
	b.emit(Instr{Kind: InstrStore, Arr: arr, A: idx, B: v})
}

// EmitGLoad emits dst = global scalar gi.
func (b *FuncBuilder) EmitGLoad(dst Reg, gi int) {
	b.emit(Instr{Kind: InstrGLoad, Dst: dst, GIndex: gi})
}

// EmitGStore emits global scalar gi = v.
func (b *FuncBuilder) EmitGStore(gi int, v Value) {
	b.emit(Instr{Kind: InstrGStore, GIndex: gi, A: v})
}

// EmitCall emits dst = callee(args...).
func (b *FuncBuilder) EmitCall(dst Reg, callee int, args []Arg) {
	b.emit(Instr{Kind: InstrCall, Dst: dst, Callee: callee, Args: args})
}

// EmitOut emits out(v).
func (b *FuncBuilder) EmitOut(v Value) {
	b.emit(Instr{Kind: InstrOut, A: v})
}

func (b *FuncBuilder) terminate(t Terminator) {
	if b.sealed[b.cur.ID] {
		panic(fmt.Sprintf("ir: builder: block b%d of %s already terminated", b.cur.ID, b.f.Name))
	}
	b.cur.Term = t
	b.sealed[b.cur.ID] = true
}

// Br terminates the insertion block with an unconditional branch.
func (b *FuncBuilder) Br(target int) {
	b.terminate(Terminator{Kind: TermBr, Succs: []int{target}})
}

// CondBr terminates with a conditional branch (nonzero cond takes then).
func (b *FuncBuilder) CondBr(cond Value, then, els int) {
	b.terminate(Terminator{Kind: TermCondBr, Cond: cond, Succs: []int{then, els}})
}

// Switch terminates with a multiway branch.
func (b *FuncBuilder) Switch(v Value, cases []int64, targets []int, deflt int) {
	succs := append(append([]int(nil), targets...), deflt)
	b.terminate(Terminator{Kind: TermSwitch, Cond: v, Cases: append([]int64(nil), cases...), Succs: succs})
}

// Ret terminates with a return.
func (b *FuncBuilder) Ret(v Value) {
	b.terminate(Terminator{Kind: TermRet, Val: v})
}

// Terminated reports whether the insertion block already has a
// terminator (used by lowering to avoid double-sealing after returns and
// breaks).
func (b *FuncBuilder) Terminated() bool { return b.sealed[b.cur.ID] }
