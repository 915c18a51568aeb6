// Package interp executes IR modules directly. It plays the role of the
// paper's HALT-instrumented profiling runs: executing a program on a
// training input yields the CFG edge-frequency profile that drives branch
// alignment, and (optionally) the dynamic basic-block trace that drives
// the pipeline/cache simulator of package pipe.
package interp

import (
	"context"
	"errors"
	"fmt"

	"branchalign/internal/ir"
)

// Input is one argument for the entry function.
type Input struct {
	IsArray bool
	Scalar  int64
	Array   []int64
}

// ScalarInput wraps a scalar entry argument.
func ScalarInput(v int64) Input { return Input{Scalar: v} }

// ArrayInput wraps an array entry argument (shared with the callee, as
// all arrays are).
func ArrayInput(a []int64) Input { return Input{IsArray: true, Array: a} }

// EntryInputs binds a program's training input to its entry function's
// signature: () takes nothing, (n) takes the scalar n, and (input[], n)
// takes data and n. Any other signature is an error. The commands each
// parse their own data and choose n; this is their one signature check.
func EntryInputs(mod *ir.Module, data []int64, n int64) ([]Input, error) {
	entry := mod.Funcs[mod.EntryFunc]
	switch {
	case len(entry.Params) == 0:
		return nil, nil
	case len(entry.Params) == 1 && entry.Params[0] == ir.ParamScalar:
		return []Input{ScalarInput(n)}, nil
	case len(entry.Params) == 2 && entry.Params[0] == ir.ParamArray && entry.Params[1] == ir.ParamScalar:
		return []Input{ArrayInput(data), ScalarInput(n)}, nil
	}
	return nil, fmt.Errorf("entry %s must have signature (), (n) or (input[], n)", entry.Name)
}

// Options configures a run.
type Options struct {
	// MaxSteps bounds the number of executed IR steps: instructions plus
	// terminators (0 means the default of 2^31). The run charges a
	// block's steps when it enters the block, so a run that would exceed
	// the budget fails at the entry of the block that crosses it, with an
	// error wrapping ErrStepBudget. The total charged is the same as
	// instruction by instruction, so a run fails exactly when it would
	// have failed counting each instruction.
	MaxSteps int64
	// MaxDepth bounds the call stack (0 means the default of 4096).
	MaxDepth int
	// MaxCells bounds the array storage live at once, in int64 cells:
	// the global arrays plus the local arrays of every active frame (0
	// means the default of 2^25, 256 MiB). Entry arguments belong to the
	// caller and do not count. The check runs before each allocation, and
	// a run over the budget fails with an error wrapping ErrCellBudget.
	MaxCells int64
	// Context, when non-nil, is polled every 1024 blocks; once it is
	// done the run fails with an error wrapping its Err.
	Context context.Context
	// Profile, when non-nil, accumulates edge counts during the run.
	Profile *Profile
	// Trace, when non-nil, is invoked for every basic block entered, in
	// execution order, with the function and block index.
	Trace func(fn, block int)
	// EdgeTrace, when non-nil, is invoked at every executed terminator
	// with the taken successor index (-1 for returns). Together with the
	// block identity this is the exact dynamic control-flow record the
	// pipeline simulator (package pipe) replays.
	EdgeTrace func(fn, block, succIdx int)
}

const (
	defaultMaxSteps = int64(1) << 31
	defaultMaxDepth = 4096
	defaultMaxCells = int64(1) << 25
	// pollBlocks is how many block entries pass between polls of
	// Options.Context.
	pollBlocks = 1024
)

var (
	// ErrStepBudget marks a run that exceeded Options.MaxSteps.
	ErrStepBudget = errors.New("step budget exceeded")
	// ErrCellBudget marks a run whose arrays would exceed Options.MaxCells.
	ErrCellBudget = errors.New("array cell budget exceeded")
)

// Result summarizes a run.
type Result struct {
	// Ret is the entry function's return value.
	Ret int64
	// Output is the stream produced by the out() builtin.
	Output []int64
	// Steps counts executed IR instructions, including terminators.
	Steps int64
	// DynCond, DynSwitch, DynBr, DynRet and DynCall count executed
	// terminators and calls by kind (the paper's "executed branch
	// instructions" corresponds to DynCond + DynSwitch + DynBr).
	DynCond   int64
	DynSwitch int64
	DynBr     int64
	DynRet    int64
	DynCall   int64
}

// DynBranches returns the paper's "executed branch instructions" metric:
// intraprocedural control-transfer instructions executed.
func (r *Result) DynBranches() int64 { return r.DynCond + r.DynSwitch + r.DynBr }

// RuntimeError is an execution failure with location context.
type RuntimeError struct {
	Func  string
	Block int
	Msg   string
	// Err, when non-nil, is the cause callers can match with errors.Is:
	// ErrStepBudget, ErrCellBudget, or the Context's error.
	Err error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("interp: %s (in %s, block b%d)", e.Msg, e.Func, e.Block)
}

// Unwrap exposes the typed budget error, if any, to errors.Is.
//
//balignlint:ignore test-only: errors.Unwrap interface method, called through errors.Is/As
func (e *RuntimeError) Unwrap() error { return e.Err }

// Run executes the module's entry function with the given inputs. It
// decodes the module first (see decode), then runs the decoded form in
// one dispatch loop.
func Run(mod *ir.Module, inputs []Input, opts Options) (Result, error) {
	m := &machine{
		opts:     opts,
		maxSteps: opts.MaxSteps,
		maxDepth: opts.MaxDepth,
		maxCells: opts.MaxCells,
	}
	if m.maxSteps <= 0 {
		m.maxSteps = defaultMaxSteps
	}
	if m.maxDepth <= 0 {
		m.maxDepth = defaultMaxDepth
	}
	if m.maxCells <= 0 {
		m.maxCells = defaultMaxCells
	}
	for _, g := range mod.GlobalArrays {
		m.cells = addCells(m.cells, g.Size)
	}
	if m.cells > m.maxCells {
		return Result{}, fmt.Errorf("interp: global arrays need more than the %d-cell budget: %w", m.maxCells, ErrCellBudget)
	}
	m.globals = make([]int64, len(mod.GlobalNames))
	m.garrays = make([][]int64, len(mod.GlobalArrays))
	for i, g := range mod.GlobalArrays {
		m.garrays[i] = make([]int64, g.Size)
	}
	if opts.Profile != nil {
		opts.Profile.init(mod)
	}
	entry := mod.Funcs[mod.EntryFunc]
	if len(entry.Blocks) == 0 {
		return Result{}, fmt.Errorf("interp: entry %s has no blocks", entry.Name)
	}
	if len(inputs) != len(entry.Params) {
		return Result{}, fmt.Errorf("interp: entry %s takes %d arguments, got %d", entry.Name, len(entry.Params), len(inputs))
	}
	for i, in := range inputs {
		if in.IsArray != (entry.Params[i] == ir.ParamArray) {
			if in.IsArray {
				return Result{}, fmt.Errorf("interp: entry argument %d must be a scalar", i)
			}
			return Result{}, fmt.Errorf("interp: entry argument %d must be an array", i)
		}
	}
	m.fns = decode(mod)
	ret, err := m.run(&m.fns[mod.EntryFunc], inputs)
	if opts.Profile != nil {
		m.flushProfile(opts.Profile)
	}
	if err != nil {
		return Result{}, err
	}
	m.res.Ret = ret
	m.countDyn()
	return m.res, nil
}

// machine is one run's state. The dispatch loop keeps in locals only
// what every instruction touches: the code, the frame's slots and
// arrays, and the pc. The running function, block and resume point live
// here and are reloaded at each block boundary, call and return, so that
// no local is live across a call inside the loop and the hot locals stay
// in registers.
type machine struct {
	fns      []fn
	globals  []int64
	garrays  [][]int64
	opts     Options
	res      Result
	maxSteps int64
	maxDepth int
	maxCells int64
	// cells is the array storage live now: global arrays plus the local
	// arrays of active frames. pooled is the local array storage held by
	// spare frames, which is capped at maxCells as well.
	cells, pooled int64

	f     *fn          // the running function
	fr    *frame       // its frame
	cur   int          // the running block
	pc    int          // where to resume in f.code; -1 enters block cur
	polls int          // block entries left until the next context poll
	stack []activation // suspended callers, innermost last
}

// activation is a suspended caller: where to resume and which slot takes
// the callee's return value.
type activation struct {
	f   *fn
	fr  *frame
	cur int
	pc  int
	dst int32
}

// run executes f with the entry inputs and returns its return value.
// Calls and returns switch the loop's function, frame and code in place;
// suspended callers wait on an explicit stack.
func (m *machine) run(f *fn, inputs []Input) (int64, error) {
	fr, err := m.enter(f)
	if err != nil {
		return 0, err
	}
	var ns, na int
	for _, in := range inputs {
		if in.IsArray {
			fr.arrays[na] = in.Array
			na++
		} else {
			fr.slots[ns] = in.Scalar
			ns++
		}
	}
	m.f, m.fr, m.cur, m.pc = f, fr, 0, -1
	m.polls, m.stack = pollBlocks, make([]activation, 0, 64)
blocks:
	for {
		pc := m.pc
		if pc < 0 {
			if m.opts.Trace != nil {
				m.opts.Trace(m.f.index, m.cur)
			}
			f, cur := m.f, m.cur
			if !m.charge(f, cur) {
				if err := m.limits(); err != nil {
					return 0, err
				}
			}
			pc = int(f.blocks[cur].start)
		}
		f, fr := m.f, m.fr
		code, s, arrs := f.code, fr.slots, fr.arrays
		for {
			in := &code[pc]
			pc++
			var (
				taken    bool
				succ, to int32 // the successor index taken, and its block
			)
			switch in.op {
			case opMove:
				s[in.dst] = s[in.a]
			case opAdd:
				s[in.dst] = s[in.a] + s[in.b]
			case opSub:
				s[in.dst] = s[in.a] - s[in.b]
			case opMul:
				s[in.dst] = s[in.a] * s[in.b]
			case opDiv:
				d := s[in.b]
				if d == 0 {
					return 0, m.fail("division by zero")
				}
				s[in.dst] = s[in.a] / d
			case opRem:
				d := s[in.b]
				if d == 0 {
					return 0, m.fail("remainder by zero")
				}
				s[in.dst] = s[in.a] % d
			case opAnd:
				s[in.dst] = s[in.a] & s[in.b]
			case opOr:
				s[in.dst] = s[in.a] | s[in.b]
			case opXor:
				s[in.dst] = s[in.a] ^ s[in.b]
			case opShl:
				s[in.dst] = s[in.a] << (uint64(s[in.b]) & 63)
			case opShr:
				s[in.dst] = s[in.a] >> (uint64(s[in.b]) & 63)
			case opEq:
				s[in.dst] = b2i(s[in.a] == s[in.b])
			case opNe:
				s[in.dst] = b2i(s[in.a] != s[in.b])
			case opLt:
				s[in.dst] = b2i(s[in.a] < s[in.b])
			case opLe:
				s[in.dst] = b2i(s[in.a] <= s[in.b])
			case opGt:
				s[in.dst] = b2i(s[in.a] > s[in.b])
			case opGe:
				s[in.dst] = b2i(s[in.a] >= s[in.b])
			case opNeg:
				s[in.dst] = -s[in.a]
			case opNot:
				s[in.dst] = b2i(s[in.a] == 0)
			case opLoadL:
				a, i := arrs[in.x], s[in.a]
				if uint64(i) >= uint64(len(a)) {
					return 0, m.outOfBounds("read", i, len(a))
				}
				s[in.dst] = a[i]
			case opLoadG:
				a, i := m.garrays[in.x], s[in.a]
				if uint64(i) >= uint64(len(a)) {
					return 0, m.outOfBounds("read", i, len(a))
				}
				s[in.dst] = a[i]
			case opStoreL:
				a, i := arrs[in.x], s[in.a]
				if uint64(i) >= uint64(len(a)) {
					return 0, m.outOfBounds("write", i, len(a))
				}
				a[i] = s[in.b]
			case opStoreG:
				a, i := m.garrays[in.x], s[in.a]
				if uint64(i) >= uint64(len(a)) {
					return 0, m.outOfBounds("write", i, len(a))
				}
				a[i] = s[in.b]
			case opGLoad:
				s[in.dst] = m.globals[in.x]
			case opGStore:
				m.globals[in.x] = s[in.a]
			case opCall:
				if err := m.call(in, pc); err != nil {
					return 0, err
				}
				continue blocks
			case opOut:
				m.res.Output = append(m.res.Output, s[in.a])
				m.pc = pc
				continue blocks
			case opBr:
				succ, to = 0, in.x
				goto jump
			case opCondBr:
				taken = s[in.a] != 0
				goto condBr
			case opEqBr:
				taken = s[in.a] == s[in.b]
				s[in.dst] = b2i(taken)
				goto condBr
			case opNeBr:
				taken = s[in.a] != s[in.b]
				s[in.dst] = b2i(taken)
				goto condBr
			case opLtBr:
				taken = s[in.a] < s[in.b]
				s[in.dst] = b2i(taken)
				goto condBr
			case opGeBr:
				taken = s[in.a] >= s[in.b]
				s[in.dst] = b2i(taken)
				goto condBr
			case opSwitch:
				v := s[in.a]
				succ, to = in.b, in.y
				for _, c := range f.cases[in.x : in.x+in.b] {
					if c.val == v {
						succ, to = c.succ, c.block
						break
					}
				}
				goto jump
			case opRet:
				if done := m.ret(s[in.a]); done {
					return s[in.a], nil
				}
				continue blocks
			default: // opTrap
				return 0, m.fail("%s", f.traps[in.x])
			}
			continue
		condBr:
			// Successor 0 when taken, 1 when not.
			succ, to = 1, in.y
			if taken {
				succ, to = 0, in.x
			}
		jump:
			// Every transfer within the function counts its edge, then
			// enters block to through the outer loop.
			f.cnt[in.ctr+succ]++
			if m.opts.EdgeTrace != nil {
				m.opts.EdgeTrace(f.index, m.cur, int(succ))
			}
			m.cur, m.pc = int(to), -1
			continue blocks
		}
	}
}

// charge does a block's entry accounting: it counts the entry, adds the
// block's steps to the run's total and counts down to the next context
// poll. It reports false when the budget is overrun or a poll is due,
// for limits to act on; it is small enough to inline.
func (m *machine) charge(f *fn, b int) bool {
	f.cnt[b]++
	m.res.Steps += int64(f.blocks[b].steps)
	m.polls--
	return m.res.Steps <= m.maxSteps && m.polls != 0
}

// limits fails a run that has overrun its step budget, and polls the
// context when a poll is due.
func (m *machine) limits() error {
	if m.res.Steps > m.maxSteps {
		return &RuntimeError{Func: m.f.name, Block: m.cur, Msg: fmt.Sprintf("step budget of %d exceeded", m.maxSteps), Err: ErrStepBudget}
	}
	if m.polls == 0 {
		m.polls = pollBlocks
		if ctx := m.opts.Context; ctx != nil && ctx.Err() != nil {
			return &RuntimeError{Func: m.f.name, Block: m.cur, Msg: ctx.Err().Error(), Err: ctx.Err()}
		}
	}
	return nil
}

// call counts a call site, takes a frame for the callee, passes the
// arguments from the running frame, and suspends the caller, which
// resumes at pc. The callee becomes the running function.
func (m *machine) call(in *instr, pc int) error {
	f, fr := m.f, m.fr
	f.cnt[in.ctr]++
	callee := &m.fns[in.x]
	if len(m.stack)+1 >= m.maxDepth {
		return &RuntimeError{Func: callee.name, Block: 0, Msg: fmt.Sprintf("call stack exceeded %d frames", m.maxDepth)}
	}
	nfr, err := m.enter(callee)
	if err != nil {
		return err
	}
	for _, a := range f.args[in.a : in.a+in.b] {
		switch a.kind {
		case argScalar:
			nfr.slots[a.dst] = fr.slots[a.src]
		case argLocal:
			nfr.arrays[a.dst] = fr.arrays[a.src]
		case argGlobal:
			nfr.arrays[a.dst] = m.garrays[a.src]
		}
	}
	m.stack = append(m.stack, activation{f: f, fr: fr, cur: m.cur, pc: pc, dst: in.dst})
	m.f, m.fr, m.cur, m.pc = callee, nfr, 0, -1
	return nil
}

// ret returns v from the running function: its frame goes back to the
// pool and the innermost suspended caller resumes with v in its
// destination slot. It reports whether the entry function returned.
func (m *machine) ret(v int64) bool {
	if m.opts.EdgeTrace != nil {
		m.opts.EdgeTrace(m.f.index, m.cur, -1)
	}
	m.leave(m.f)
	if len(m.stack) == 0 {
		return true
	}
	top := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	m.f, m.fr, m.cur, m.pc = top.f, top.fr, top.cur, top.pc
	m.fr.slots[top.dst] = v
	return false
}

// fail reports an execution error in the running block.
func (m *machine) fail(format string, args ...any) error {
	return &RuntimeError{Func: m.f.name, Block: m.cur, Msg: fmt.Sprintf(format, args...)}
}

func (m *machine) outOfBounds(access string, i int64, n int) error {
	return m.fail("array %s out of bounds: index %d, length %d", access, i, n)
}

// enter takes a frame for f from its pool, or allocates one, after
// charging its local arrays to the cell budget. The registers past the
// scalar parameters are zero, and so are the local arrays; the caller
// fills in the parameters.
func (m *machine) enter(f *fn) (*frame, error) {
	if f.cells > m.maxCells-m.cells {
		return nil, &RuntimeError{Func: f.name, Block: 0,
			Msg: fmt.Sprintf("local arrays exceed the %d-cell budget", m.maxCells), Err: ErrCellBudget}
	}
	m.cells += f.cells
	if n := len(f.free); n > 0 {
		fr := f.free[n-1]
		f.free = f.free[:n-1]
		m.pooled -= f.cells
		// A loop, not clear: frames have a handful of registers, too few
		// to pay for a call to memclr.
		for i := f.scalars; i < f.nregs; i++ {
			fr.slots[i] = 0
		}
		for _, a := range fr.arrays[f.arrays-len(f.locals):] {
			clear(a)
		}
		return fr, nil
	}
	fr := &frame{
		slots:  make([]int64, f.nregs+len(f.consts)),
		arrays: make([][]int64, f.arrays),
	}
	copy(fr.slots[f.nregs:], f.consts)
	for i, size := range f.locals {
		fr.arrays[f.arrays-len(f.locals)+i] = make([]int64, size)
	}
	return fr, nil
}

// leave returns the running frame m.fr to f's pool, unless spare frames
// already hold a full cell budget of local arrays.
func (m *machine) leave(f *fn) {
	m.cells -= f.cells
	if f.cells > m.maxCells-m.pooled {
		return
	}
	m.pooled += f.cells
	f.free = append(f.free, m.fr)
}

// flushProfile adds the run's counters into p.
func (m *machine) flushProfile(p *Profile) {
	for fi := range m.fns {
		f := &m.fns[fi]
		fp := p.Funcs[fi]
		for bi, blk := range f.blocks {
			fp.BlockCounts[bi] += f.cnt[bi]
			for si := range fp.EdgeCounts[bi] {
				fp.EdgeCounts[bi][si] += f.cnt[int(blk.edges)+si]
			}
		}
		for _, in := range f.code {
			if in.op == opCall {
				p.CallCounts[fi][in.x] += f.cnt[in.ctr]
			}
		}
	}
}

// countDyn derives the Dyn* counters of a completed run from its block
// and call-site counters: every block entered by a run that completes
// executes its terminator exactly once.
func (m *machine) countDyn() {
	for fi := range m.fns {
		f := &m.fns[fi]
		for bi, blk := range f.blocks {
			switch blk.term {
			case ir.TermBr:
				m.res.DynBr += f.cnt[bi]
			case ir.TermCondBr:
				m.res.DynCond += f.cnt[bi]
			case ir.TermSwitch:
				m.res.DynSwitch += f.cnt[bi]
			case ir.TermRet:
				m.res.DynRet += f.cnt[bi]
			}
		}
		for _, in := range f.code {
			if in.op == opCall {
				m.res.DynCall += f.cnt[in.ctr]
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
