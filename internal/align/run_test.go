package align

import (
	"context"
	"testing"

	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/tsp"
)

// TestRunBoundMatchesFuncBounds: under every registered aligner, on
// every bundled benchmark, Run's bound is the sum of FuncHeldKarpBound
// over independently built matrices, function by function. The bound
// rides on whatever matrix the aligner built (or Run builds it), so it
// must not depend on the aligner.
func TestRunBoundMatchesFuncBounds(t *testing.T) {
	m := machine.Alpha21164()
	hk := tsp.HeldKarpOptions{Iterations: 50}
	// A kick cap keeps tsp cheap on the larger modules; it caps the
	// solve only, never the bound.
	budget := tsp.Budget{MaxKicks: 100}
	for _, b := range bench.All() {
		mod, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		prof := interp.NewProfile(mod)
		if _, err := interp.Run(mod, b.DataSets[0].Make(), interp.Options{Profile: prof, MaxSteps: 1 << 31}); err != nil {
			t.Fatal(err)
		}
		want := make([]FuncBoundResult, len(mod.Funcs))
		var total tsp.Cost
		for fi, f := range mod.Funcs {
			want[fi] = FuncHeldKarpBound(f, BuildSparseMatrix(f, prof.Funcs[fi], m, nil), hk)
			total += want[fi].Bound
		}
		for _, name := range Names() {
			a, err := New(name, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res := Run(context.Background(), a, mod, prof, m, RunOptions{Bound: &hk, Budget: budget})
			if res.Bound != total {
				t.Errorf("%s/%s: Run bound %d, want %d", b.Name, name, res.Bound, total)
			}
			for fi, r := range res.Funcs {
				if r.Bound != want[fi] {
					t.Errorf("%s/%s/%s: bound %+v, want %+v", b.Name, name, mod.Funcs[fi].Name, r.Bound, want[fi])
				}
			}
			if err := res.Layout.Validate(mod); err != nil {
				t.Errorf("%s/%s: invalid layout: %v", b.Name, name, err)
			}
		}
	}
}

// TestRunBuildsEachMatrixOnce: an aligner that reads the DTSP matrix
// (tsp, ap-patch) shares it with the bound, so a traced run records
// exactly one "align.build_matrix" span per function.
func TestRunBuildsEachMatrixOnce(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	for _, a := range []Aligner{NewTSP(1), APPatch{}} {
		sink := &obs.MemorySink{}
		tr := obs.New(sink)
		root := tr.Start("test")
		Run(context.Background(), a, mod, prof, m, RunOptions{Bound: &tsp.HeldKarpOptions{Iterations: 20}, Obs: root})
		root.End()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		builds := map[string]int{}
		for _, e := range sink.Events() {
			if e.Type == "span" && e.Name == "align.build_matrix" {
				builds[e.Str("func")]++
			}
		}
		if len(builds) != len(mod.Funcs) {
			t.Errorf("%s: matrices built for %d functions, want %d", a.Name(), len(builds), len(mod.Funcs))
		}
		for _, f := range mod.Funcs {
			if builds[f.Name] != 1 {
				t.Errorf("%s: func %s has %d align.build_matrix spans, want 1", a.Name(), f.Name, builds[f.Name])
			}
		}
	}
}

// TestAPPatchCancelledKeepsCompilerOrder: a cancelled ap-patch run
// leaves every multi-block function in compiler order, flagged
// Truncated, and the layout stays valid.
func TestAPPatchCancelledKeepsCompilerOrder(t *testing.T) {
	mod, prof := compileBranchy(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(ctx, APPatch{}, mod, prof, machine.Alpha21164(), RunOptions{})
	if err := res.Layout.Validate(mod); err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("cancelled run not flagged Truncated")
	}
	for fi, f := range mod.Funcs {
		r := res.Funcs[fi]
		if len(f.Blocks) > 1 && !r.Truncated {
			t.Errorf("%s: not flagged Truncated", f.Name)
		}
		for i, b := range r.Order {
			if b != i {
				t.Errorf("%s: order %v, want compiler order", f.Name, r.Order)
				break
			}
		}
	}
}
