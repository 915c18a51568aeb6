package staticprof_test

import (
	"testing"

	"branchalign/internal/bench"
	"branchalign/internal/cfganal"
	"branchalign/internal/check"
	"branchalign/internal/ir"
	"branchalign/internal/staticprof"
	"branchalign/internal/testutil"
)

// TestEstimateFlowConservation is the load-bearing invariant: on every
// bundled benchmark the synthetic profile must satisfy check.Flow exactly
// — the estimator's whole contract is that downstream stages cannot tell
// it from a measured profile.
func TestEstimateFlowConservation(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			mod, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			prof, info := staticprof.Estimate(mod)
			if err := prof.CheckShape(mod); err != nil {
				t.Fatalf("shape: %v", err)
			}
			if r := check.Flow(mod, prof); !r.OK() {
				t.Fatalf("flow conservation broken:\n%s", r)
			}
			for fi, f := range mod.Funcs {
				if !info.Funcs[fi].Converged {
					t.Errorf("func %s: integer fixpoint did not converge", f.Name)
				}
			}
			// The profile must be non-trivial: the entry function runs.
			ep := prof.Funcs[mod.EntryFunc]
			if ep.BlockCounts[0] == 0 {
				t.Error("entry function estimated never to run")
			}
		})
	}
}

// TestEstimateHotterInLoops checks the basic shape of the estimate: loop
// bodies are hotter than straight-line code around them, and nested loops
// hotter still.
func TestEstimateHotterInLoops(t *testing.T) {
	mod, err := testutil.Compile(`
func main(n) {
	var i;
	var j;
	var s = 0;
	for (i = 0; i < n; i = i + 1) {
		for (j = 0; j < n; j = j + 1) {
			s = s + j;
		}
	}
	return s;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	prof, info := staticprof.Estimate(mod)
	if r := check.Flow(mod, prof); !r.OK() {
		t.Fatalf("flow conservation broken:\n%s", r)
	}
	rel := info.Funcs[0].RelFreq
	var depth1, depth2 float64
	for b, d := range cfganal.LoopDepth(mod.Funcs[0]) {
		switch d {
		case 1:
			if rel[b] > depth1 {
				depth1 = rel[b]
			}
		case 2:
			if rel[b] > depth2 {
				depth2 = rel[b]
			}
		}
	}
	if !(depth2 > depth1 && depth1 > rel[0]) {
		t.Errorf("loop nesting not reflected: entry=%.2f depth1=%.2f depth2=%.2f", rel[0], depth1, depth2)
	}
}

// TestEstimateInfiniteLoopZeroed: a function that can never return must
// get an all-zero profile (the only integer flow satisfying Kirchhoff
// with no exits), and a caller of it still conserves flow.
func TestEstimateInfiniteLoopZeroed(t *testing.T) {
	fb := ir.NewFuncBuilder("spin", nil)
	loop := fb.NewBlock("loop")
	fb.Br(loop)
	fb.SetInsert(loop)
	fb.Br(loop)
	spin := fb.Func()

	mb := ir.NewFuncBuilder("main", nil)
	r := mb.NewReg()
	mb.EmitCall(r, 1, nil)
	mb.Ret(ir.ConstVal(0))
	main := mb.Func()

	mod := &ir.Module{Funcs: []*ir.Func{main, spin}, EntryFunc: 0}
	prof, info := staticprof.Estimate(mod)
	if rep := check.Flow(mod, prof); !rep.OK() {
		t.Fatalf("flow conservation broken:\n%s", rep)
	}
	for b, c := range prof.Funcs[1].BlockCounts {
		if c != 0 {
			t.Errorf("spin b%d count %d, want 0", b, c)
		}
	}
	if !info.Funcs[1].Doomed[0] {
		t.Error("spin entry not marked doomed")
	}
	// main itself still runs despite calling a function that never
	// returns: the estimator is structural, not an abstract interpreter.
	if prof.Funcs[0].BlockCounts[0] == 0 {
		t.Error("main estimated never to run")
	}
}

// TestEstimateIrreducible: a multi-entry cycle must still produce an
// exactly conservative profile via the capped refinement.
func TestEstimateIrreducible(t *testing.T) {
	fb := ir.NewFuncBuilder("irr", []ir.ParamKind{ir.ParamScalar})
	a := fb.NewBlock("a")
	b := fb.NewBlock("b")
	ret := fb.NewBlock("ret")
	fb.CondBr(ir.RegVal(0), a, b)
	fb.SetInsert(a)
	fb.Br(b)
	fb.SetInsert(b)
	fb.CondBr(ir.RegVal(0), a, ret)
	fb.SetInsert(ret)
	fb.Ret(ir.ConstVal(0))
	mod := &ir.Module{Funcs: []*ir.Func{fb.Func()}, EntryFunc: 0}

	prof, info := staticprof.Estimate(mod)
	if rep := check.Flow(mod, prof); !rep.OK() {
		t.Fatalf("flow conservation broken:\n%s", rep)
	}
	if !info.Funcs[0].Irreducible {
		t.Error("irreducible region not detected")
	}
	if !info.Funcs[0].Converged {
		t.Error("integer fixpoint did not converge on the irreducible CFG")
	}
	if prof.Funcs[0].BlockCounts[ret] == 0 {
		t.Error("no flow reached the return")
	}
}

// TestEstimateRecursion: direct recursion must terminate (capped
// invocation fixpoint) and stay exactly conservative.
func TestEstimateRecursion(t *testing.T) {
	mod, err := testutil.Compile(`
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main(n) { return fib(n); }
`)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := staticprof.Estimate(mod)
	if rep := check.Flow(mod, prof); !rep.OK() {
		t.Fatalf("flow conservation broken:\n%s", rep)
	}
	fi := mod.FuncIndex("fib")
	if prof.Funcs[fi].BlockCounts[0] == 0 {
		t.Error("recursive callee estimated never to run")
	}
}

// TestEstimateDeterministic: two estimates of the same module must be
// bit-identical (the engine caches on profile bytes).
func TestEstimateDeterministic(t *testing.T) {
	b := bench.All()[2] // eqntott: branchy, recursive quicksort
	mod, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := staticprof.Estimate(mod)
	p2, _ := staticprof.Estimate(mod)
	for fi := range p1.Funcs {
		for bi := range p1.Funcs[fi].BlockCounts {
			if p1.Funcs[fi].BlockCounts[bi] != p2.Funcs[fi].BlockCounts[bi] {
				t.Fatalf("func %d block %d: %d vs %d", fi, bi,
					p1.Funcs[fi].BlockCounts[bi], p2.Funcs[fi].BlockCounts[bi])
			}
			for si := range p1.Funcs[fi].EdgeCounts[bi] {
				if p1.Funcs[fi].EdgeCounts[bi][si] != p2.Funcs[fi].EdgeCounts[bi][si] {
					t.Fatalf("func %d block %d succ %d differ", fi, bi, si)
				}
			}
		}
	}
	for fi := range p1.CallCounts {
		for gi := range p1.CallCounts[fi] {
			if p1.CallCounts[fi][gi] != p2.CallCounts[fi][gi] {
				t.Fatalf("call counts %d->%d differ", fi, gi)
			}
		}
	}
}

// TestLintFindings drives each lint class with a CFG built to trigger it.
func TestLintFindings(t *testing.T) {
	t.Run("infinite loop", func(t *testing.T) {
		mod, err := testutil.Compile(`func main() { while (1) { out(1); } return 0; }`)
		if err != nil {
			t.Fatal(err)
		}
		r := staticprof.Lint(mod)
		if countClass(r, check.ClassInfiniteLoop) == 0 {
			t.Errorf("while(1) not flagged:\n%s", r)
		}
	})
	t.Run("irreducible", func(t *testing.T) {
		fb := ir.NewFuncBuilder("irr", []ir.ParamKind{ir.ParamScalar})
		a := fb.NewBlock("a")
		b := fb.NewBlock("b")
		ret := fb.NewBlock("ret")
		fb.CondBr(ir.RegVal(0), a, b)
		fb.SetInsert(a)
		fb.Br(b)
		fb.SetInsert(b)
		fb.CondBr(ir.RegVal(0), a, ret)
		fb.SetInsert(ret)
		fb.Ret(ir.ConstVal(0))
		mod := &ir.Module{Funcs: []*ir.Func{fb.Func()}, EntryFunc: 0}
		r := staticprof.Lint(mod)
		if countClass(r, check.ClassIrreducible) == 0 {
			t.Errorf("irreducible cycle not flagged:\n%s", r)
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		mod, err := testutil.Compile(`func main() { return 1; out(2); }`)
		if err != nil {
			t.Fatal(err)
		}
		r := staticprof.Lint(mod)
		if countClass(r, check.ClassUnreachable) == 0 {
			t.Skip("lowering produced no unreachable block")
		}
	})
	t.Run("clean benchmarks stay clean", func(t *testing.T) {
		for _, b := range bench.All() {
			mod, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			r := staticprof.Lint(mod)
			if !r.OK() {
				t.Errorf("%s: lint errors (lints must be warnings):\n%s", b.Name, r)
			}
			for _, cls := range []check.Class{check.ClassInfiniteLoop, check.ClassIrreducible} {
				if n := countClass(r, cls); n > 0 {
					t.Errorf("%s: %d unexpected %s findings", b.Name, n, cls)
				}
			}
		}
	})
}

// countClass counts the report's findings of one class.
func countClass(r *check.Report, c check.Class) int {
	n := 0
	for _, f := range r.Findings {
		if f.Class == c {
			n++
		}
	}
	return n
}
