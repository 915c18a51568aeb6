package interp

import (
	"fmt"
	"math"

	"branchalign/internal/ir"
)

// opcode is a decoded instruction's operation. Every operand of a
// decoded instruction is a frame slot: the function's registers first,
// then its constant pool, so an operand read is one indexed load with no
// constant-or-register branch.
type opcode uint8

const (
	opMove opcode = iota // s[dst] = s[a]
	opAdd                // s[dst] = s[a] + s[b], and so on to opGe
	opSub
	opMul
	opDiv // checked: traps on a zero divisor
	opRem // checked: traps on a zero divisor
	opAnd
	opOr
	opXor
	opShl // shift count masked to 0..63
	opShr
	opEq // comparisons yield 0 or 1
	opNe
	opLt
	opLe
	opGt
	opGe
	opNeg    // s[dst] = -s[a]
	opNot    // s[dst] = 1 if s[a] == 0, else 0
	opLoadL  // s[dst] = arrays[x][s[a]] (frame array: parameter or local)
	opLoadG  // s[dst] = globalArrays[x][s[a]]
	opStoreL // arrays[x][s[a]] = s[b]
	opStoreG // globalArrays[x][s[a]] = s[b]
	opGLoad  // s[dst] = globals[x]
	opGStore // globals[x] = s[a]
	opCall   // s[dst] = funcs[x](args[a : a+b]); cnt[ctr] counts the call site
	opOut    // append s[a] to the output stream
	opBr     // to block x; cnt[ctr] counts the edge
	opCondBr // to block x if s[a] != 0, else block y; cnt[ctr], cnt[ctr+1] count the edges
	opSwitch // s[a] against cases[x : x+b], first match wins, else to block y; cnt[ctr+i] counts successor i
	opRet    // return s[a]
	opTrap   // fail with traps[x]: an unknown kind or operator, or a malformed operand

	// A compare whose result only a block's conditional branch reads
	// next fuses with it: s[dst] = s[a] OP s[b] as 0 or 1, then branch
	// as opCondBr on that value. Gt and Le decode to Lt and Ge with the
	// operands swapped.
	opEqBr
	opNeBr
	opLtBr
	opGeBr
)

// instr is one decoded instruction. Field use per opcode is listed at
// the opcode constants; unused fields are zero.
type instr struct {
	op   opcode
	dst  int32
	a, b int32
	x, y int32
	ctr  int32 // counter index: a call site's, or a terminator's first edge
}

// block is a decoded basic block: its first instruction, and the steps
// it executes (its instructions plus the terminator), which the dispatch
// loop charges in one addition at block entry.
type block struct {
	start int32
	steps int32
	term  ir.TermKind
	edges int32 // counter index of its first successor edge
}

// argKind says where a call argument comes from and where it goes.
type argKind uint8

const (
	argScalar argKind = iota // callee slot dst = caller slot src
	argLocal                 // callee array dst = caller frame array src
	argGlobal                // callee array dst = global array src
)

type arg struct {
	kind     argKind
	src, dst int32
}

// swcase is one switch case: its value, the successor index it selects
// and that successor's block.
type swcase struct {
	val   int64
	succ  int32
	block int32
}

// fn is one decoded function: flat code, block table, side tables, the
// flat counters the run accumulates into, and the pool of spare frames.
type fn struct {
	name   string
	index  int
	code   []instr
	blocks []block
	args   []arg
	cases  []swcase
	traps  []string

	// cnt holds the run's counters for this function: block entries
	// (one per block), then each block's successor edges, then one per
	// call site. Run adds them into the Profile when it finishes.
	cnt []int64

	nregs   int
	scalars int     // scalar parameters, bound to slots 0..scalars-1
	consts  []int64 // the constant pool: slot nregs+i holds consts[i]
	arrays  int     // frame arrays: array parameters, then locals
	locals  []int   // local array sizes; frame array arrays-len(locals)+i
	cells   int64   // local array cells per frame, saturated at math.MaxInt64

	free []*frame
}

// frame is one activation's storage. Frames come from their function's
// pool: on reuse the registers are cleared and the local arrays zeroed,
// so a call allocates only when the pool is empty.
type frame struct {
	slots  []int64   // registers, then the constant pool
	arrays [][]int64 // array parameters, then local arrays
}

// decoder lowers a module's functions into one shared code array and one
// shared counter array, subsliced per function once all are decoded.
type decoder struct {
	mod    *ir.Module
	code   []instr
	ncnt   int
	consts map[int64]int32
	f      *fn
	base   int // index in code of f's first instruction
}

// decode lowers every function of mod. Anything the interpreter cannot
// execute (an unknown instruction or terminator kind, a non-binary
// operator, an operand out of range) decodes to an opTrap: a run fails
// only if it reaches one, so code it never executes cannot fail it.
func decode(mod *ir.Module) []fn {
	fns := make([]fn, len(mod.Funcs))
	d := &decoder{mod: mod, consts: map[int64]int32{}}
	codeStart := make([]int, len(mod.Funcs)+1)
	cntStart := make([]int, len(mod.Funcs)+1)
	for fi, f := range mod.Funcs {
		codeStart[fi], cntStart[fi] = len(d.code), d.ncnt
		d.function(&fns[fi], fi, f)
	}
	codeStart[len(mod.Funcs)], cntStart[len(mod.Funcs)] = len(d.code), d.ncnt
	cnt := make([]int64, d.ncnt)
	for fi := range fns {
		fns[fi].code = d.code[codeStart[fi]:codeStart[fi+1]:codeStart[fi+1]]
		fns[fi].cnt = cnt[cntStart[fi]:cntStart[fi+1]:cntStart[fi+1]]
	}
	return fns
}

func (d *decoder) function(out *fn, fi int, f *ir.Func) {
	clear(d.consts)
	*out = fn{
		name:    f.Name,
		index:   fi,
		blocks:  make([]block, len(f.Blocks)),
		nregs:   f.NumRegs,
		scalars: f.NumScalarParams(),
		arrays:  f.NumArrayParams() + len(f.LocalArraySizes),
		locals:  f.LocalArraySizes,
	}
	for _, size := range f.LocalArraySizes {
		out.cells = addCells(out.cells, size)
	}
	d.f, d.base = out, len(d.code)
	base := d.ncnt
	d.ncnt += len(f.Blocks)
	for bi, b := range f.Blocks {
		out.blocks[bi] = block{
			start: int32(len(d.code) - d.base),
			steps: int32(len(b.Instrs) + 1),
			term:  b.Term.Kind,
			edges: int32(d.ncnt - base),
		}
		d.ncnt += len(b.Term.Succs)
		for i := range b.Instrs {
			d.code = append(d.code, d.instr(&b.Instrs[i]))
		}
		t := d.term(&b.Term, len(f.Blocks), out.blocks[bi].edges)
		if n := len(d.code); n > d.base+int(out.blocks[bi].start) && t.op == opCondBr {
			if fused, ok := fuse(d.code[n-1], t); ok {
				d.code[n-1] = fused
				continue
			}
		}
		d.code = append(d.code, t)
	}
	// Call-site counters follow the edge counters; number them now that
	// the edge counters are laid out.
	for i := d.base; i < len(d.code); i++ {
		if d.code[i].op == opCall {
			d.code[i].ctr = int32(d.ncnt - base)
			d.ncnt++
		}
	}
}

// fuse merges a compare into the conditional branch that follows it
// when the branch tests the compare's destination.
func fuse(cmp, br instr) (instr, bool) {
	if cmp.dst != br.a {
		return instr{}, false
	}
	a, b := cmp.a, cmp.b
	var op opcode
	switch cmp.op {
	case opEq:
		op = opEqBr
	case opNe:
		op = opNeBr
	case opLt:
		op = opLtBr
	case opGe:
		op = opGeBr
	case opGt:
		op, a, b = opLtBr, b, a
	case opLe:
		op, a, b = opGeBr, b, a
	default:
		return instr{}, false
	}
	return instr{op: op, dst: cmp.dst, a: a, b: b, x: br.x, y: br.y, ctr: br.ctr}, true
}

// trap decodes to an instruction that fails with msg when executed.
func (d *decoder) trap(format string, args ...any) instr {
	d.f.traps = append(d.f.traps, fmt.Sprintf(format, args...))
	return instr{op: opTrap, x: int32(len(d.f.traps) - 1)}
}

// slot resolves an operand to its frame slot: a register, or a constant
// pool entry (deduplicated per function).
func (d *decoder) slot(v ir.Value) (int32, bool) {
	if !v.IsConst {
		return int32(v.Reg), v.Reg >= 0 && int(v.Reg) < d.f.nregs
	}
	s, ok := d.consts[v.Const]
	if !ok {
		s = int32(d.f.nregs + len(d.f.consts))
		d.f.consts = append(d.f.consts, v.Const)
		d.consts[v.Const] = s
	}
	return s, true
}

// array resolves an array reference: a global array index, or a frame
// array index.
func (d *decoder) array(a ir.ArrayRef) (int32, bool) {
	if a.Global {
		return int32(a.Index), a.Index >= 0 && a.Index < len(d.mod.GlobalArrays)
	}
	return int32(a.Index), a.Index >= 0 && a.Index < d.f.arrays
}

var binOps = [...]opcode{
	ir.OpAdd: opAdd, ir.OpSub: opSub, ir.OpMul: opMul, ir.OpDiv: opDiv, ir.OpRem: opRem,
	ir.OpAnd: opAnd, ir.OpOr: opOr, ir.OpXor: opXor, ir.OpShl: opShl, ir.OpShr: opShr,
	ir.OpEq: opEq, ir.OpNe: opNe, ir.OpLt: opLt, ir.OpLe: opLe, ir.OpGt: opGt, ir.OpGe: opGe,
}

func (d *decoder) instr(in *ir.Instr) instr {
	dst := int32(in.Dst)
	dstOK := in.Dst >= 0 && int(in.Dst) < d.f.nregs
	a, aOK := d.slot(in.A)
	switch in.Kind {
	case ir.InstrConst, ir.InstrMove:
		if !dstOK || !aOK {
			return d.trap("malformed instruction %s", in)
		}
		return instr{op: opMove, dst: dst, a: a}
	case ir.InstrBin:
		if in.Op < 0 || int(in.Op) >= len(binOps) {
			return d.trap("operator %v is not binary", in.Op)
		}
		b, bOK := d.slot(in.B)
		if !dstOK || !aOK || !bOK {
			return d.trap("malformed instruction %s", in)
		}
		return instr{op: binOps[in.Op], dst: dst, a: a, b: b}
	case ir.InstrUn:
		if !dstOK || !aOK {
			return d.trap("malformed instruction %s", in)
		}
		// Any operator other than negation is logical not: ir.Verify
		// admits only the two, and unverified modules keep this reading.
		if in.Op == ir.OpNeg {
			return instr{op: opNeg, dst: dst, a: a}
		}
		return instr{op: opNot, dst: dst, a: a}
	case ir.InstrLoad:
		x, xOK := d.array(in.Arr)
		if !dstOK || !aOK || !xOK {
			return d.trap("malformed instruction %s", in)
		}
		if in.Arr.Global {
			return instr{op: opLoadG, dst: dst, a: a, x: x}
		}
		return instr{op: opLoadL, dst: dst, a: a, x: x}
	case ir.InstrStore:
		x, xOK := d.array(in.Arr)
		b, bOK := d.slot(in.B)
		if !aOK || !bOK || !xOK {
			return d.trap("malformed instruction %s", in)
		}
		if in.Arr.Global {
			return instr{op: opStoreG, a: a, b: b, x: x}
		}
		return instr{op: opStoreL, a: a, b: b, x: x}
	case ir.InstrGLoad:
		if !dstOK || in.GIndex < 0 || in.GIndex >= len(d.mod.GlobalNames) {
			return d.trap("malformed instruction %s", in)
		}
		return instr{op: opGLoad, dst: dst, x: int32(in.GIndex)}
	case ir.InstrGStore:
		if !aOK || in.GIndex < 0 || in.GIndex >= len(d.mod.GlobalNames) {
			return d.trap("malformed instruction %s", in)
		}
		return instr{op: opGStore, a: a, x: int32(in.GIndex)}
	case ir.InstrCall:
		return d.call(in, dst, dstOK)
	case ir.InstrOut:
		if !aOK {
			return d.trap("malformed instruction %s", in)
		}
		return instr{op: opOut, a: a}
	}
	return d.trap("unknown instruction kind %d", in.Kind)
}

// call decodes a call: its arguments go to the function's arg table,
// each with its destination slot or frame array in the callee.
func (d *decoder) call(in *ir.Instr, dst int32, dstOK bool) instr {
	if !dstOK || in.Callee < 0 || in.Callee >= len(d.mod.Funcs) {
		return d.trap("malformed instruction %s", in)
	}
	callee := d.mod.Funcs[in.Callee]
	if len(callee.Blocks) == 0 {
		return d.trap("malformed instruction %s: callee %s has no blocks", in, callee.Name)
	}
	if len(in.Args) != len(callee.Params) {
		return d.trap("malformed instruction %s: callee %s takes %d arguments", in, callee.Name, len(callee.Params))
	}
	start := len(d.f.args)
	var scalars, arrays int32
	for i, a := range in.Args {
		if a.IsArray != (callee.Params[i] == ir.ParamArray) {
			d.f.args = d.f.args[:start]
			return d.trap("malformed instruction %s: argument %d does not match its parameter", in, i)
		}
		if !a.IsArray {
			src, ok := d.slot(a.Val)
			if !ok {
				d.f.args = d.f.args[:start]
				return d.trap("malformed instruction %s", in)
			}
			d.f.args = append(d.f.args, arg{kind: argScalar, src: src, dst: scalars})
			scalars++
			continue
		}
		src, ok := d.array(a.Arr)
		if !ok {
			d.f.args = d.f.args[:start]
			return d.trap("malformed instruction %s", in)
		}
		kind := argLocal
		if a.Arr.Global {
			kind = argGlobal
		}
		d.f.args = append(d.f.args, arg{kind: kind, src: src, dst: arrays})
		arrays++
	}
	return instr{op: opCall, dst: dst, x: int32(in.Callee), a: int32(start), b: int32(len(in.Args))}
}

// term decodes a terminator. edges is the counter index of the block's
// first successor edge.
func (d *decoder) term(t *ir.Terminator, nblocks int, edges int32) instr {
	succsOK := true
	for _, s := range t.Succs {
		succsOK = succsOK && s >= 0 && s < nblocks
	}
	c, cOK := d.slot(t.Cond)
	switch t.Kind {
	case ir.TermBr:
		if len(t.Succs) != 1 || !succsOK {
			return d.malformedTerm(t)
		}
		return instr{op: opBr, ctr: edges, x: int32(t.Succs[0])}
	case ir.TermCondBr:
		if len(t.Succs) != 2 || !succsOK || !cOK {
			return d.malformedTerm(t)
		}
		return instr{op: opCondBr, ctr: edges, a: c, x: int32(t.Succs[0]), y: int32(t.Succs[1])}
	case ir.TermSwitch:
		if len(t.Succs) != len(t.Cases)+1 || !succsOK || !cOK {
			return d.malformedTerm(t)
		}
		// The table keeps the cases in source order, so a duplicated
		// value still selects its first successor.
		start := len(d.f.cases)
		for i, v := range t.Cases {
			d.f.cases = append(d.f.cases, swcase{val: v, succ: int32(i), block: int32(t.Succs[i])})
		}
		return instr{op: opSwitch, ctr: edges, a: c, x: int32(start), b: int32(len(t.Cases)), y: int32(t.Succs[len(t.Cases)])}
	case ir.TermRet:
		v, vOK := d.slot(t.Val)
		if len(t.Succs) != 0 || !vOK {
			return d.malformedTerm(t)
		}
		return instr{op: opRet, a: v}
	}
	return d.trap("unknown terminator kind %d", t.Kind)
}

// malformedTerm traps a terminator whose shape or operands are out of
// range. It does not print t, whose String assumes a well-formed shape.
func (d *decoder) malformedTerm(t *ir.Terminator) instr {
	return d.trap("malformed terminator (kind %d, successors %v, cases %v)", t.Kind, t.Succs, t.Cases)
}

// addCells adds an array's size to a cell total, saturating at
// math.MaxInt64 so that no sum of declared sizes wraps around; a negative
// size saturates too, and so fails any budget check.
func addCells(total int64, size int) int64 {
	if size < 0 || int64(size) > math.MaxInt64-total {
		return math.MaxInt64
	}
	return total + int64(size)
}
