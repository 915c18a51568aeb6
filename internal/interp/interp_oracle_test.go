package interp_test

// The tests here run the dispatch loop (interp.Run) in lockstep with the
// tree walker it replaced (walkRun, below) on the same module and inputs.
// The relation they assert is the loop's contract: both fail or both
// succeed; a successful run has the same Result, Profile and Trace and
// EdgeTrace call sequences; and a failure other than the step budget,
// whose check moved to block entry, is the same error with the same
// partial Profile.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
)

type runFunc func(*ir.Module, []interp.Input, interp.Options) (interp.Result, error)

// observed is everything a run shows its caller.
type observed struct {
	res          interp.Result
	err          error
	prof         *interp.Profile
	trace, edges uint64 // FNV-1a-style hashes of the Trace and EdgeTrace call sequences
	nTrace       int
	nEdges       int
}

// mix folds v into an FNV-1a-style running hash.
func mix(h uint64, v int) uint64 { return (h ^ uint64(v)) * 1099511628211 }

// observe runs mod under run with a fresh profile and hashing trace
// callbacks. inputs builds the entry arguments afresh for each run, since
// a run may write to its array argument.
func observe(run runFunc, mod *ir.Module, inputs func() []interp.Input, opts interp.Options) observed {
	o := observed{trace: 14695981039346656037, edges: 14695981039346656037}
	opts.Profile = interp.NewProfile(mod)
	opts.Trace = func(fn, block int) {
		o.nTrace++
		o.trace = mix(mix(o.trace, fn), block)
	}
	opts.EdgeTrace = func(fn, block, succ int) {
		o.nEdges++
		o.edges = mix(mix(mix(o.edges, fn), block), succ)
	}
	o.res, o.err = run(mod, inputs(), opts)
	o.prof = opts.Profile
	return o
}

// lockstep runs mod under the walker and the loop and checks the
// contract between them. It returns the loop's observation.
func lockstep(t *testing.T, name string, mod *ir.Module, inputs func() []interp.Input, opts interp.Options) observed {
	t.Helper()
	want := observe(walkRun, mod, inputs, opts)
	got := observe(interp.Run, mod, inputs, opts)
	if (want.err == nil) != (got.err == nil) {
		t.Fatalf("%s: walker err = %v, loop err = %v", name, want.err, got.err)
	}
	if got.err != nil {
		if errors.Is(got.err, interp.ErrStepBudget) {
			return got
		}
		if want.err.Error() != got.err.Error() {
			t.Fatalf("%s: walker err = %v, loop err = %v", name, want.err, got.err)
		}
	} else if !reflect.DeepEqual(want.res, got.res) {
		t.Fatalf("%s: Result differs\nwalker: %+v\nloop:   %+v", name, want.res, got.res)
	}
	if !reflect.DeepEqual(want.prof, got.prof) {
		t.Fatalf("%s: Profile differs (err %v)", name, got.err)
	}
	if got.err == nil && (want.trace != got.trace || want.nTrace != got.nTrace) {
		t.Fatalf("%s: Trace sequence differs (%d vs %d calls)", name, want.nTrace, got.nTrace)
	}
	if got.err == nil && (want.edges != got.edges || want.nEdges != got.nEdges) {
		t.Fatalf("%s: EdgeTrace sequence differs (%d vs %d calls)", name, want.nEdges, got.nEdges)
	}
	return got
}

// TestLockstepBundled covers the 13 bundled (benchmark, data set) pairs
// balignd profiles: the six paper benchmarks on both data sets, plus
// go95 on its small input.
func TestLockstepBundled(t *testing.T) {
	type pair struct {
		b    *bench.Benchmark
		data string
	}
	var pairs []pair
	for _, b := range bench.All() {
		for _, ds := range b.DataSets {
			pairs = append(pairs, pair{b, ds.Name})
		}
	}
	go95, err := bench.ByName("go95")
	if err != nil {
		t.Fatal(err)
	}
	pairs = append(pairs, pair{go95, "sh"})
	for _, p := range pairs {
		name := p.b.Name + "/" + p.data
		mod, err := p.b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.b.DataSet(p.data)
		if err != nil {
			t.Fatal(err)
		}
		if got := lockstep(t, name, mod, ds.Make, interp.Options{MaxSteps: 1 << 31}); got.err != nil {
			t.Fatalf("%s: %v", name, got.err)
		}
	}
}

// TestLockstepGenerated runs seeded synthetic programs (see genProgram)
// at an ample budget, then again at exactly the steps the run took and
// one fewer, where both interpreters must succeed and fail respectively,
// and under a shallow stack limit.
func TestLockstepGenerated(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	var ok, failed int
	for seed := int64(1); seed <= int64(n); seed++ {
		src := genProgram(seed)
		mod, err := compileSource(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v\n%s", seed, err, src)
		}
		name := fmt.Sprintf("seed %d", seed)
		inputs := genInputs(seed)
		got := lockstep(t, name, mod, inputs, interp.Options{MaxSteps: 1 << 22})
		if got.err != nil {
			failed++
			continue
		}
		ok++
		steps := got.res.Steps
		if exact := lockstep(t, name+" at its exact budget", mod, inputs, interp.Options{MaxSteps: steps}); exact.err != nil {
			t.Fatalf("%s: failed at a budget of its own %d steps: %v", name, steps, exact.err)
		}
		if short := lockstep(t, name+" one step short", mod, inputs, interp.Options{MaxSteps: steps - 1}); !errors.Is(short.err, interp.ErrStepBudget) {
			t.Fatalf("%s: at %d steps, err = %v, want the step budget", name, steps-1, short.err)
		}
		lockstep(t, name+" at depth 3", mod, inputs, interp.Options{MaxSteps: 1 << 22, MaxDepth: 3})
	}
	t.Logf("generated runs: %d succeeded, %d failed", ok, failed)
	// The generator is tuned so both outcomes are common; a drift to
	// all-fail or all-succeed would hollow the test out.
	if ok < n/3 || failed < n/20 {
		t.Fatalf("generated runs: %d succeeded, %d failed; want both outcomes well represented", ok, failed)
	}
}

// TestLockstepDuplicateSwitchCases builds IR by hand, since Mini-C rejects
// duplicate case values: the first matching case must win.
func TestLockstepDuplicateSwitchCases(t *testing.T) {
	b := ir.NewFuncBuilder("main", []ir.ParamKind{ir.ParamScalar})
	one, two, three := b.NewBlock("one"), b.NewBlock("two"), b.NewBlock("three")
	b.Switch(ir.RegVal(0), []int64{4, 7, 4}, []int{one, two, three}, three)
	for i, blk := range []int{one, two, three} {
		b.SetInsert(blk)
		b.Ret(ir.ConstVal(int64(10 * (i + 1))))
	}
	mod := &ir.Module{Funcs: []*ir.Func{b.Func()}}
	for _, x := range []int64{4, 7, 9} {
		got := lockstep(t, fmt.Sprintf("x=%d", x), mod, func() []interp.Input {
			return []interp.Input{interp.ScalarInput(x)}
		}, interp.Options{})
		if got.err != nil {
			t.Fatal(got.err)
		}
	}
}

// FuzzLockstep runs every fuzzed program that compiles through both
// interpreters and asserts the lockstep relation. The seeds are
// FuzzCompileInvariants' programs plus generated ones.
func FuzzLockstep(f *testing.F) {
	for _, s := range []string{
		"func main() { return 0; }",
		"func main(n) { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
		"func main(x[], n) { var s = 0; var i = 0; while (i < n) { s = s + x[i]; i = i + 1; } return s; }",
		"func g(x) { if (x <= 1) { return 1; } return x * g(x - 1); } func main(n) { return g(n % 10); }",
		"func main(n) { switch (n % 3) { case 0: return 7; case 1: return 8; default: return 9; } return 0; }",
		"global acc; func bump(x) { acc = acc + x; return acc; } func main(n) { var i = 0; for (i = 0; i < n; i = i + 1) { bump(i); } return acc; }",
		"func main(n) { return n / (n - n); }",
		"func main(n) { while (1) { } return 0; }",
		"func main(n) { var a[4]; return a[n]; }",
		"func f() { return 0; }",
		genProgram(1),
		genProgram(2),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := compileSource(src)
		if err != nil {
			return
		}
		entry := mod.Funcs[mod.EntryFunc]
		inputs := func() []interp.Input {
			in := make([]interp.Input, len(entry.Params))
			for i, p := range entry.Params {
				if p == ir.ParamArray {
					in[i] = interp.ArrayInput([]int64{3, 1, 4, 1, 5})
				} else {
					in[i] = interp.ScalarInput(5)
				}
			}
			return in
		}
		// The walker has no cell budget: skip programs whose arrays it
		// would allocate beyond what a test should.
		cells := 0
		for _, g := range mod.GlobalArrays {
			cells += g.Size
		}
		for _, fn := range mod.Funcs {
			for _, size := range fn.LocalArraySizes {
				cells += size
			}
		}
		if cells > 1<<16 {
			return
		}
		lockstep(t, "fuzzed", mod, inputs, interp.Options{MaxSteps: 1 << 16, MaxDepth: 64})
	})
}

func compileSource(src string) (*ir.Module, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := minic.Check(prog)
	if err != nil {
		return nil, err
	}
	return lower.Program(info)
}

// genInputs returns the entry arguments of a generated program: an
// 8-element array and a small scalar, both from seed.
func genInputs(seed int64) func() []interp.Input {
	r := rand.New(rand.NewSource(seed))
	data := make([]int64, 8)
	for i := range data {
		data[i] = r.Int63n(41) - 20
	}
	n := r.Int63n(12)
	return func() []interp.Input {
		return []interp.Input{interp.ArrayInput(append([]int64(nil), data...)), interp.ScalarInput(n)}
	}
}

// gen writes one random Mini-C program. Every array it indexes has at
// least 8 cells, so "& 7" indices are in bounds; a few raw indices and
// unguarded divisors make some runs fail, on purpose.
type gen struct {
	r       *rand.Rand
	b       strings.Builder
	indent  int
	vars    []string // assignable scalars in scope
	fixed   []string // readable but not assignable: loop counters
	arrays  []string // arrays in scope, each at least 8 cells
	callees []string // helpers callable from here, as "name/arity-kind"
	loops   int      // enclosing loops, for break and continue
	nextVar int
}

// genProgram builds a program from seed: two global scalars, two global
// arrays, a recursive function with a local array, up to three helpers
// taking a scalar pair and an array, and main(input[], n) with local
// arrays, loops, switches (with and without default), calls and out().
func genProgram(seed int64) string {
	g := &gen{r: rand.New(rand.NewSource(seed))}
	g.line("global g0;")
	g.line("global g1;")
	g.line("global ga0[8];")
	g.line("global ga1[16];")
	g.line("func rec(n, a[]) {")
	g.indent++
	g.line("var ra[8];")
	g.line("if (n <= 0) { return a[0] + g0; }")
	g.line("ra[n & 7] = n * %d;", g.r.Intn(9)+1)
	g.line("var t = rec(n - 1, a) + ra[(n + %d) & 7];", g.r.Intn(8))
	g.line("a[n & 7] = a[n & 7] + t;")
	g.line("switch (t %% %d) { case 0: t = t + 1; case 1: t = t * 2; default: t = t - n; }", g.r.Intn(4)+2)
	g.line("return t;")
	g.indent--
	g.line("}")
	helpers := g.r.Intn(4)
	for h := 0; h < helpers; h++ {
		g.function(fmt.Sprintf("h%d", h), "x, y, arr[]", []string{"x", "y"}, []string{"arr", "ga0", "ga1"})
		g.callees = append(g.callees, fmt.Sprintf("h%d", h))
	}
	g.function("main", "input[], n", []string{"n"}, []string{"input", "ga0", "ga1"})
	return g.b.String()
}

func (g *gen) line(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) function(name, params string, scalars, arrays []string) {
	g.line("func %s(%s) {", name, params)
	g.indent++
	g.vars = append([]string(nil), scalars...)
	g.fixed = nil
	g.arrays = append([]string(nil), arrays...)
	for i := g.r.Intn(3); i > 0; i-- {
		a := g.fresh("la")
		g.line("var %s[%d];", a, 8+g.r.Intn(9))
		g.arrays = append(g.arrays, a)
	}
	for i := g.r.Intn(3) + 1; i > 0; i-- {
		v := g.fresh("v")
		g.line("var %s = %s;", v, g.expr(2))
		g.vars = append(g.vars, v)
	}
	g.block(g.r.Intn(4)+2, 0)
	if name == "main" && len(g.callees) > 0 {
		// Drive every helper from a loop, so calls and returns are hot.
		i := g.fresh("i")
		g.line("var %s;", i)
		g.line("for (%s = 0; %s < n %% 4 + 2; %s = %s + 1) {", i, i, i, i)
		for _, h := range g.callees {
			g.line("\t%s = %s(%s, %s, %s);", g.pick(g.vars), h, i, g.expr(1), g.pick(g.arrays))
		}
		g.line("}")
	}
	g.line("return %s;", g.expr(2))
	g.indent--
	g.line("}")
}

func (g *gen) fresh(prefix string) string {
	g.nextVar++
	return fmt.Sprintf("%s%d", prefix, g.nextVar)
}

func (g *gen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

// block writes n statements at nesting depth d.
func (g *gen) block(n, d int) {
	for ; n > 0; n-- {
		g.stmt(d)
	}
}

func (g *gen) stmt(d int) {
	k := g.r.Intn(12)
	if d >= 2 && k >= 6 {
		k %= 6 // no deeper nesting
	}
	switch k {
	case 0, 1:
		g.line("%s = %s;", g.pick(g.vars), g.expr(3))
	case 2:
		g.line("g%d = %s;", g.r.Intn(2), g.expr(2))
	case 3:
		g.line("%s[%s] = %s;", g.pick(g.arrays), g.index(), g.expr(2))
	case 4:
		g.line("out(%s);", g.expr(2))
	case 5:
		if g.loops > 0 && g.r.Intn(2) == 0 {
			g.line("if (%s) { %s; }", g.expr(2), []string{"break", "continue"}[g.r.Intn(2)])
		} else {
			g.line("%s = rec(%s & 7, %s);", g.pick(g.vars), g.expr(1), g.pick(g.arrays))
		}
	case 6, 7:
		g.line("if (%s) {", g.expr(2))
		g.nested(d)
		if g.r.Intn(2) == 0 {
			g.line("} else {")
			g.nested(d)
		}
		g.line("}")
	case 8, 9:
		i := g.fresh("i")
		g.line("var %s;", i)
		if g.r.Intn(2) == 0 {
			g.line("for (%s = 0; %s < %d; %s = %s + 1) {", i, i, g.r.Intn(6)+1, i, i)
		} else {
			g.line("%s = 0;", i)
			g.line("while (%s < %s %% 5 + 2) {", i, g.pick(append(g.vars, "3")))
			g.indent++
			g.line("%s = %s + 1;", i, i)
			g.indent--
		}
		g.fixed = append(g.fixed, i)
		g.loops++
		g.nested(d)
		g.loops--
		g.fixed = g.fixed[:len(g.fixed)-1]
		g.line("}")
	case 10:
		g.line("switch (%s %% %d) {", g.expr(2), g.r.Intn(5)+2)
		for _, c := range g.r.Perm(5)[:g.r.Intn(4)+1] {
			g.line("case %d:", c)
			g.nested(d)
		}
		if g.r.Intn(2) == 0 {
			g.line("default:")
			g.nested(d)
		}
		g.line("}")
	case 11:
		if len(g.callees) == 0 {
			g.line("out(%s);", g.expr(2))
			return
		}
		g.line("%s = %s(%s, %s, %s);", g.pick(g.vars), g.pick(g.callees), g.expr(1), g.expr(1), g.pick(g.arrays))
	}
}

func (g *gen) nested(d int) {
	g.indent++
	g.block(g.r.Intn(3)+1, d+1)
	g.indent--
}

// index is an array index: almost always masked into bounds.
func (g *gen) index() string {
	if g.r.Intn(40) == 0 {
		return g.expr(1)
	}
	return fmt.Sprintf("(%s) & 7", g.expr(1))
}

var genOps = []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}

func (g *gen) expr(d int) string {
	if d <= 0 || g.r.Intn(3) == 0 {
		return g.leaf()
	}
	switch g.r.Intn(10) {
	case 7:
		// Division and remainder, by a nonzero constant or, rarely, by an
		// expression that may be zero.
		op := []string{"/", "%"}[g.r.Intn(2)]
		if g.r.Intn(12) == 0 {
			return fmt.Sprintf("(%s %s %s)", g.expr(d-1), op, g.expr(d-1))
		}
		return fmt.Sprintf("(%s %s %d)", g.expr(d-1), op, g.r.Intn(7)+1)
	case 8:
		return fmt.Sprintf("%s(%s)", []string{"-", "!"}[g.r.Intn(2)], g.expr(d-1))
	case 9:
		return fmt.Sprintf("%s[%s]", g.pick(g.arrays), g.index())
	}
	return fmt.Sprintf("(%s %s %s)", g.expr(d-1), g.pick(genOps), g.expr(d-1))
}

func (g *gen) leaf() string {
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprint(g.r.Intn(10))
	case 1:
		return fmt.Sprintf("g%d", g.r.Intn(2))
	case 2:
		if len(g.fixed) > 0 {
			return g.pick(g.fixed)
		}
	}
	return g.pick(g.vars)
}

// The oracle.

type walker struct {
	mod      *ir.Module
	globals  []int64
	garrays  [][]int64
	opts     interp.Options
	res      interp.Result
	depth    int
	maxSteps int64
	maxDepth int
}

// walkRun is the tree walker Run used before the decoded dispatch loop:
// it interprets ir.Instr values directly, checks the step budget per
// instruction and allocates every frame.
func walkRun(mod *ir.Module, inputs []interp.Input, opts interp.Options) (interp.Result, error) {
	m := &walker{
		mod:      mod,
		globals:  make([]int64, len(mod.GlobalNames)),
		garrays:  make([][]int64, len(mod.GlobalArrays)),
		opts:     opts,
		maxSteps: opts.MaxSteps,
		maxDepth: opts.MaxDepth,
	}
	if m.maxSteps <= 0 {
		m.maxSteps = 1 << 31
	}
	if m.maxDepth <= 0 {
		m.maxDepth = 4096
	}
	for i, g := range mod.GlobalArrays {
		m.garrays[i] = make([]int64, g.Size)
	}
	if opts.Profile != nil {
		initProfile(opts.Profile, mod)
	}
	entry := mod.Funcs[mod.EntryFunc]
	if len(inputs) != len(entry.Params) {
		return interp.Result{}, fmt.Errorf("interp: entry %s takes %d arguments, got %d", entry.Name, len(entry.Params), len(inputs))
	}
	walkArgs := make([]walkArg, len(inputs))
	for i, in := range inputs {
		if entry.Params[i] == ir.ParamArray {
			if !in.IsArray {
				return interp.Result{}, fmt.Errorf("interp: entry argument %d must be an array", i)
			}
			walkArgs[i] = walkArg{isArray: true, arr: in.Array}
		} else {
			if in.IsArray {
				return interp.Result{}, fmt.Errorf("interp: entry argument %d must be a scalar", i)
			}
			walkArgs[i] = walkArg{scalar: in.Scalar}
		}
	}
	ret, err := m.call(mod.EntryFunc, walkArgs)
	if err != nil {
		return interp.Result{}, err
	}
	m.res.Ret = ret
	return m.res, nil
}

// initProfile shapes p for mod unless it is already shaped, as Run does.
func initProfile(p *interp.Profile, mod *ir.Module) {
	if p.Funcs == nil {
		*p = *interp.NewProfile(mod)
	}
}

type walkArg struct {
	isArray bool
	scalar  int64
	arr     []int64
}

func (m *walker) call(fnIdx int, args []walkArg) (int64, error) {
	f := m.mod.Funcs[fnIdx]
	if m.depth >= m.maxDepth {
		return 0, &interp.RuntimeError{Func: f.Name, Block: 0, Msg: fmt.Sprintf("call stack exceeded %d frames", m.maxDepth)}
	}
	m.depth++
	defer func() { m.depth-- }()

	regs := make([]int64, f.NumRegs)
	arrays := make([][]int64, 0, f.NumArrayParams()+len(f.LocalArraySizes))
	nextScalar := 0
	for i, a := range args {
		if f.Params[i] == ir.ParamArray {
			arrays = append(arrays, a.arr)
		} else {
			regs[nextScalar] = a.scalar
			nextScalar++
		}
	}
	for _, size := range f.LocalArraySizes {
		arrays = append(arrays, make([]int64, size))
	}

	var prof *interp.FuncProfile
	if m.opts.Profile != nil {
		prof = m.opts.Profile.Funcs[fnIdx]
	}

	cur := 0
	for {
		blk := f.Blocks[cur]
		if m.opts.Trace != nil {
			m.opts.Trace(fnIdx, cur)
		}
		if prof != nil {
			prof.BlockCounts[cur]++
		}
		for i := range blk.Instrs {
			if err := m.exec(fnIdx, f, blk, &blk.Instrs[i], regs, arrays); err != nil {
				return 0, err
			}
		}
		m.res.Steps++
		if m.res.Steps > m.maxSteps {
			return 0, &interp.RuntimeError{Func: f.Name, Block: cur, Msg: fmt.Sprintf("step budget of %d exceeded", m.maxSteps)}
		}
		t := &blk.Term
		switch t.Kind {
		case ir.TermBr:
			m.res.DynBr++
			if prof != nil {
				prof.EdgeCounts[cur][0]++
			}
			if m.opts.EdgeTrace != nil {
				m.opts.EdgeTrace(fnIdx, cur, 0)
			}
			cur = t.Succs[0]
		case ir.TermCondBr:
			m.res.DynCond++
			succIdx := 1
			if m.eval(t.Cond, regs) != 0 {
				succIdx = 0
			}
			if prof != nil {
				prof.EdgeCounts[cur][succIdx]++
			}
			if m.opts.EdgeTrace != nil {
				m.opts.EdgeTrace(fnIdx, cur, succIdx)
			}
			cur = t.Succs[succIdx]
		case ir.TermSwitch:
			m.res.DynSwitch++
			v := m.eval(t.Cond, regs)
			succIdx := len(t.Cases) // default
			for ci, cv := range t.Cases {
				if v == cv {
					succIdx = ci
					break
				}
			}
			if prof != nil {
				prof.EdgeCounts[cur][succIdx]++
			}
			if m.opts.EdgeTrace != nil {
				m.opts.EdgeTrace(fnIdx, cur, succIdx)
			}
			cur = t.Succs[succIdx]
		case ir.TermRet:
			m.res.DynRet++
			if m.opts.EdgeTrace != nil {
				m.opts.EdgeTrace(fnIdx, cur, -1)
			}
			return m.eval(t.Val, regs), nil
		}
	}
}

func (m *walker) eval(v ir.Value, regs []int64) int64 {
	if v.IsConst {
		return v.Const
	}
	return regs[v.Reg]
}

func (m *walker) exec(fnIdx int, f *ir.Func, blk *ir.Block, in *ir.Instr, regs []int64, arrays [][]int64) error {
	m.res.Steps++
	if m.res.Steps > m.maxSteps {
		return &interp.RuntimeError{Func: f.Name, Block: blk.ID, Msg: fmt.Sprintf("step budget of %d exceeded", m.maxSteps)}
	}
	fail := func(format string, args ...any) error {
		return &interp.RuntimeError{Func: f.Name, Block: blk.ID, Msg: fmt.Sprintf(format, args...)}
	}
	arrayFor := func(ref ir.ArrayRef) []int64 {
		if ref.Global {
			return m.garrays[ref.Index]
		}
		return arrays[ref.Index]
	}
	switch in.Kind {
	case ir.InstrConst, ir.InstrMove:
		regs[in.Dst] = m.eval(in.A, regs)
	case ir.InstrBin:
		a := m.eval(in.A, regs)
		b := m.eval(in.B, regs)
		r, err := binOp(in.Op, a, b)
		if err != nil {
			return fail("%v", err)
		}
		regs[in.Dst] = r
	case ir.InstrUn:
		a := m.eval(in.A, regs)
		if in.Op == ir.OpNeg {
			regs[in.Dst] = -a
		} else if a == 0 {
			regs[in.Dst] = 1
		} else {
			regs[in.Dst] = 0
		}
	case ir.InstrLoad:
		arr := arrayFor(in.Arr)
		idx := m.eval(in.A, regs)
		if idx < 0 || idx >= int64(len(arr)) {
			return fail("array read out of bounds: index %d, length %d", idx, len(arr))
		}
		regs[in.Dst] = arr[idx]
	case ir.InstrStore:
		arr := arrayFor(in.Arr)
		idx := m.eval(in.A, regs)
		if idx < 0 || idx >= int64(len(arr)) {
			return fail("array write out of bounds: index %d, length %d", idx, len(arr))
		}
		arr[idx] = m.eval(in.B, regs)
	case ir.InstrGLoad:
		regs[in.Dst] = m.globals[in.GIndex]
	case ir.InstrGStore:
		m.globals[in.GIndex] = m.eval(in.A, regs)
	case ir.InstrCall:
		m.res.DynCall++
		if m.opts.Profile != nil {
			m.opts.Profile.CallCounts[fnIdx][in.Callee]++
		}
		callArgs := make([]walkArg, len(in.Args))
		for i, a := range in.Args {
			if a.IsArray {
				callArgs[i] = walkArg{isArray: true, arr: arrayFor(a.Arr)}
			} else {
				callArgs[i] = walkArg{scalar: m.eval(a.Val, regs)}
			}
		}
		ret, err := m.call(in.Callee, callArgs)
		if err != nil {
			return err
		}
		regs[in.Dst] = ret
	case ir.InstrOut:
		m.res.Output = append(m.res.Output, m.eval(in.A, regs))
	default:
		return fail("unknown instruction kind %d", in.Kind)
	}
	return nil
}

// binOp applies a binary operator with Mini-C semantics: 64-bit wrapping
// arithmetic, comparisons yielding 0/1, shift counts masked to 0..63, and
// division/remainder by zero reported as errors.
func binOp(op ir.Op, a, b int64) (int64, error) {
	switch op {
	case ir.OpAdd:
		return a + b, nil
	case ir.OpSub:
		return a - b, nil
	case ir.OpMul:
		return a * b, nil
	case ir.OpDiv:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	case ir.OpRem:
		if b == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		return a % b, nil
	case ir.OpAnd:
		return a & b, nil
	case ir.OpOr:
		return a | b, nil
	case ir.OpXor:
		return a ^ b, nil
	case ir.OpShl:
		return a << (uint64(b) & 63), nil
	case ir.OpShr:
		return a >> (uint64(b) & 63), nil
	case ir.OpEq:
		return b2i(a == b), nil
	case ir.OpNe:
		return b2i(a != b), nil
	case ir.OpLt:
		return b2i(a < b), nil
	case ir.OpLe:
		return b2i(a <= b), nil
	case ir.OpGt:
		return b2i(a > b), nil
	case ir.OpGe:
		return b2i(a >= b), nil
	}
	return 0, fmt.Errorf("operator %v is not binary", op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
