package main

import (
	"fmt"
	"math/rand"
	"strings"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
)

// synthStepCap bounds the in-process profiling run of a generated module.
// Every loop the generator emits has a small constant trip count, so a
// module needs far fewer steps; the cap turns a generator bug into an
// error instead of a hung benchmark.
const synthStepCap = 1 << 21

// Block-count targets of a generated module: 2–3 functions of 40–200
// blocks each, within synthSlack of the requested total.
const (
	synthMinFuncBlocks = 40
	synthMaxFuncBlocks = 200
	synthSlack         = 12
)

// synthSizes are the requested block totals. Solve time grows with
// block count, so synth_recorded cycles through them evenly instead of
// drawing sizes at random.
var synthSizes = []int{140, 160, 180, 200, 220}

// synthProgram is one generated Mini-C module with its compiled form, its
// training input and the profile recorded from it.
type synthProgram struct {
	source string
	data   []int64
	mod    *ir.Module
	prof   *interp.Profile
	steps  int64
}

// genSynth returns the seeded module of about total blocks. The source
// text is a pure function of (seed, total); the generator retries inside
// the same random stream until the lowered module meets the block-count
// targets.
func genSynth(seed int64, total int) (*synthProgram, error) {
	r := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 64; attempt++ {
		src, data := synthSource(r, total)
		mod, err := compile(src)
		if err != nil {
			return nil, fmt.Errorf("synth seed %d: %w", seed, err)
		}
		if !synthShapeOK(mod, total) {
			continue
		}
		prof := interp.NewProfile(mod)
		res, err := interp.Run(mod, entryInputs(data), interp.Options{Profile: prof, MaxSteps: synthStepCap})
		if err != nil {
			return nil, fmt.Errorf("synth seed %d: profiling: %w", seed, err)
		}
		return &synthProgram{source: src, data: data, mod: mod, prof: prof, steps: res.Steps}, nil
	}
	return nil, fmt.Errorf("synth seed %d: no module met the block-count targets", seed)
}

// synthShapeOK reports whether mod meets the block-count targets for
// total. The entry function only loops over the input calling the
// others, and is not counted.
func synthShapeOK(mod *ir.Module, want int) bool {
	total := 0
	for fi, f := range mod.Funcs {
		if fi == mod.EntryFunc {
			continue
		}
		n := len(f.Blocks)
		if n < synthMinFuncBlocks || n > synthMaxFuncBlocks {
			return false
		}
		total += n
	}
	return total >= want-synthSlack && total <= want+synthSlack
}

func compile(src string) (*ir.Module, error) {
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

// entryInputs shapes data for a main(input[], n) entry, as balignd does.
func entryInputs(data []int64) []interp.Input {
	return []interp.Input{interp.ArrayInput(data), interp.ScalarInput(int64(len(data)))}
}

// synthGen writes one module's source. Values stay non-negative and
// every division is by a positive constant, so no run can trap.
type synthGen struct {
	r     *rand.Rand
	b     strings.Builder
	ind   int
	loops int // while-loop counters used in the current function
}

const synthMaxLoops = 6

func synthSource(r *rand.Rand, total int) (string, []int64) {
	g := &synthGen{r: r}
	nf := 2 + r.Intn(2)
	// Per-function block budgets: the lowered total lands near total
	// often enough, and genSynth retries the rest.
	budgets := make([]int, nf)
	left := total
	for i := range budgets {
		share := left / (nf - i)
		if i < nf-1 {
			share += r.Intn(share/2+1) - share/4
		}
		if share < synthMinFuncBlocks+5 {
			share = synthMinFuncBlocks + 5
		}
		if share > synthMaxFuncBlocks-20 {
			share = synthMaxFuncBlocks - 20
		}
		budgets[i] = share
		left -= share
	}
	for i, bud := range budgets {
		g.function(i, bud)
	}
	g.line("func main(input[], n) {")
	g.ind++
	g.line("var t = 0;")
	g.line("var k;")
	g.line("for (k = 0; k < n; k = k + 1) {")
	g.ind++
	for i := range budgets {
		g.line(fmt.Sprintf("t = (t + f%d(input[k] + t %% %d, %d)) %% 1000003;", i, 3+r.Intn(5), 3+r.Intn(5)))
	}
	g.ind--
	g.line("}")
	g.line("return t;")
	g.ind--
	g.line("}")

	data := make([]int64, 12+r.Intn(8))
	for i := range data {
		data[i] = int64(r.Intn(50000))
	}
	return g.b.String(), data
}

func (g *synthGen) line(s string) {
	g.b.WriteString(strings.Repeat("\t", g.ind))
	g.b.WriteString(s)
	g.b.WriteByte('\n')
}

func (g *synthGen) function(idx, budget int) {
	g.loops = 0
	g.line(fmt.Sprintf("func f%d(x, n) {", idx))
	g.ind++
	g.line(fmt.Sprintf("var s = %d;", idx+1))
	g.line("var i;")
	for j := 0; j < synthMaxLoops; j++ {
		g.line(fmt.Sprintf("var j%d;", j))
	}
	g.line("for (i = 0; i < n; i = i + 1) {")
	g.ind++
	g.stmts(0, budget-4)
	g.line("x = (x * 75 + 74) % 65537;")
	g.ind--
	g.line("}")
	g.line("return s;")
	g.ind--
	g.line("}")
}

// stmts emits statements worth about budget basic blocks.
func (g *synthGen) stmts(depth, budget int) {
	g.assign()
	for budget > 1 && depth < 4 {
		budget -= g.stmt(depth, budget)
	}
}

// stmt emits one branching statement and returns the blocks it is
// expected to add.
func (g *synthGen) stmt(depth, budget int) int {
	inner := budget / 2
	if inner > 24 {
		inner = 8 + g.r.Intn(16)
	}
	switch k := g.r.Intn(10); {
	case k < 4:
		g.line(fmt.Sprintf("if (%s) {", g.cond()))
		g.ind++
		a := g.r.Intn(inner + 1)
		g.stmts(depth+1, a)
		g.ind--
		g.line("} else {")
		g.ind++
		g.stmts(depth+1, inner-a)
		g.ind--
		g.line("}")
		return 3 + inner
	case k < 6:
		g.line(fmt.Sprintf("if (%s) {", g.cond()))
		g.ind++
		g.stmts(depth+1, inner)
		g.ind--
		g.line("}")
		return 2 + inner
	case k < 8:
		ways := 2 + g.r.Intn(4)
		g.line(fmt.Sprintf("switch ((x + s + i) %% %d) {", ways+1))
		for c := 0; c < ways; c++ {
			g.line(fmt.Sprintf("case %d:", c))
			g.ind++
			g.stmts(depth+1, inner/ways)
			g.ind--
		}
		g.line("default:")
		g.ind++
		g.assign()
		g.ind--
		g.line("}")
		return ways + 2 + inner
	default:
		if g.loops == synthMaxLoops || depth > 1 {
			g.assign()
			return 1
		}
		j := g.loops
		g.loops++
		g.line(fmt.Sprintf("j%d = 0;", j))
		g.line(fmt.Sprintf("while (j%d < %d) {", j, 1+g.r.Intn(3)))
		g.ind++
		g.stmts(depth+1, inner)
		g.line(fmt.Sprintf("j%d = j%d + 1;", j, j))
		g.ind--
		g.line("}")
		return 3 + inner
	}
}

func (g *synthGen) cond() string {
	c := fmt.Sprintf("(x + s) %% %d < %d", 5+g.r.Intn(20), 1+g.r.Intn(5))
	switch g.r.Intn(4) {
	case 0:
		c += fmt.Sprintf(" && i %% %d == %d", 2+g.r.Intn(2), g.r.Intn(2))
	case 1:
		c += fmt.Sprintf(" || s %% %d == 0", 3+g.r.Intn(5))
	}
	return c
}

func (g *synthGen) assign() {
	switch g.r.Intn(3) {
	case 0:
		g.line(fmt.Sprintf("s = (s + x * %d) %% 1000003;", 1+g.r.Intn(97)))
	case 1:
		g.line(fmt.Sprintf("s = (s * %d + i) %% 1000003;", 2+g.r.Intn(13)))
	default:
		g.line(fmt.Sprintf("x = (x + s %% %d) %% 65537;", 7+g.r.Intn(50)))
	}
}
