package bench

import (
	"context"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

func TestSuiteShape(t *testing.T) {
	suite := All()
	if len(suite) != 6 {
		t.Fatalf("suite has %d benchmarks, want 6", len(suite))
	}
	seen := map[string]bool{}
	for _, b := range suite {
		if b.Name == "" || b.Abbr == "" || b.Description == "" {
			t.Errorf("benchmark %+v missing metadata", b)
		}
		if seen[b.Name] || seen[b.Abbr] {
			t.Errorf("duplicate benchmark name/abbr %s/%s", b.Name, b.Abbr)
		}
		seen[b.Name] = true
		seen[b.Abbr] = true
		if len(b.DataSets) < 2 {
			t.Errorf("%s: need >= 2 data sets for cross-validation, got %d", b.Name, len(b.DataSets))
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("compress"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("xli"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("su2"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

// TestAllBenchmarksCompileAndRun executes every benchmark on every data
// set and checks that the workload is substantial enough to profile
// (Table 1's "executed branch instructions" column must be nontrivial).
func TestAllBenchmarksCompileAndRun(t *testing.T) {
	for _, b := range All() {
		mod, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := mod.Verify(); err != nil {
			t.Fatalf("%s: verify: %v", b.Name, err)
		}
		for _, ds := range b.DataSets {
			prof := interp.NewProfile(mod)
			res, err := interp.Run(mod, ds.Make(), interp.Options{Profile: prof, MaxSteps: 1 << 30})
			if err != nil {
				t.Fatalf("%s.%s: run: %v", b.Name, ds.Name, err)
			}
			if res.DynBranches() < 1000 {
				t.Errorf("%s.%s: only %d dynamic branches; workload too small", b.Name, ds.Name, res.DynBranches())
			}
			if len(res.Output) == 0 {
				t.Errorf("%s.%s: no output produced", b.Name, ds.Name)
			}
			if prof.BranchSitesTouched(mod) < 5 {
				t.Errorf("%s.%s: only %d branch sites touched", b.Name, ds.Name, prof.BranchSitesTouched(mod))
			}
		}
	}
}

// TestDataSetsDiffer: the two data sets of each benchmark must exercise
// the program differently (different dynamic branch counts), or
// cross-validation would be vacuous.
func TestDataSetsDiffer(t *testing.T) {
	for _, b := range All() {
		mod, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var counts []int64
		for _, ds := range b.DataSets {
			res, err := interp.Run(mod, ds.Make(), interp.Options{MaxSteps: 1 << 30})
			if err != nil {
				t.Fatalf("%s.%s: %v", b.Name, ds.Name, err)
			}
			counts = append(counts, res.DynBranches())
		}
		if counts[0] == counts[1] {
			t.Errorf("%s: both data sets execute exactly %d branches; suspicious", b.Name, counts[0])
		}
	}
}

// TestXliNeIsShortRunning pins the paper's observation: xli.ne runs for a
// very short time relative to xli.q7 (and is therefore a poor training
// input).
func TestXliNeIsShortRunning(t *testing.T) {
	b := Xli()
	mod, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	q7, err := b.DataSet("q7")
	if err != nil {
		t.Fatal(err)
	}
	ne, err := b.DataSet("ne")
	if err != nil {
		t.Fatal(err)
	}
	resQ7, err := interp.Run(mod, q7.Make(), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resNe, err := interp.Run(mod, ne.Make(), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resNe.DynBranches()*20 > resQ7.DynBranches() {
		t.Errorf("xli.ne (%d branches) should be far shorter than xli.q7 (%d)",
			resNe.DynBranches(), resQ7.DynBranches())
	}
}

// TestQueensCountsAreCorrect checks the VM against known N-queens
// solution counts, validating the interpreter-in-interpreter end to end.
func TestQueensCountsAreCorrect(t *testing.T) {
	b := Xli()
	mod, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	known := map[int64]int64{4: 2, 5: 10, 6: 4, 7: 40, 8: 92}
	for n, want := range known {
		res, err := interp.Run(mod, vmInput(queensProgram(n, 1)), interp.Options{})
		if err != nil {
			t.Fatalf("queens(%d): %v", n, err)
		}
		// Output: [solutions, vmSteps]
		if len(res.Output) != 2 || res.Output[0] != want {
			t.Errorf("queens(%d) = %v, want %d solutions", n, res.Output, want)
		}
	}
}

// TestNewtonComputesIntegerSqrt validates the other VM program.
func TestNewtonComputesIntegerSqrt(t *testing.T) {
	b := Xli()
	mod, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{0, 1, 2, 3, 4, 15, 16, 17, 99, 100, 1 << 20}
	res, err := interp.Run(mod, vmInput(newtonProgram(vals)), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(vals)+1 {
		t.Fatalf("got %d outputs, want %d", len(res.Output), len(vals)+1)
	}
	for i, v := range vals {
		got := res.Output[i]
		if got*got > v || (got+1)*(got+1) <= v {
			t.Errorf("isqrt(%d) = %d", v, got)
		}
	}
}

// TestSemanticsPreservedUnderAnyLayout is the strongest system-level
// invariant: program output must be identical under original, greedy and
// TSP layouts (layout is pure reordering; the interpreter executes the
// CFG, so this validates that alignment never touches semantics-bearing
// state).
func TestSemanticsPreservedUnderAnyLayout(t *testing.T) {
	// The interpreter executes CFG successors directly, so layout cannot
	// change outputs by construction; what CAN change outputs is a buggy
	// aligner mutating the module. Run aligners, then re-run the program
	// and compare outputs.
	for _, b := range All()[:3] { // three suffice; the rest run in slower suites
		mod, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		ds := b.DataSets[1]
		before, err := interp.Run(mod, ds.Make(), interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prof := interp.NewProfile(mod)
		if _, err := interp.Run(mod, ds.Make(), interp.Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
		m := machine.Alpha21164()
		for _, a := range []align.Aligner{align.PettisHansen{}, align.NewTSP(1)} {
			l := align.Run(context.Background(), a, mod, prof, m, align.RunOptions{}).Layout
			if err := l.Validate(mod); err != nil {
				t.Fatalf("%s/%s: %v", b.Name, a.Name(), err)
			}
		}
		after, err := interp.Run(mod, ds.Make(), interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if before.Ret != after.Ret || len(before.Output) != len(after.Output) {
			t.Fatalf("%s: module mutated by alignment", b.Name)
		}
		for i := range before.Output {
			if before.Output[i] != after.Output[i] {
				t.Fatalf("%s: output diverged at %d", b.Name, i)
			}
		}
	}
}

func TestSynthesize(t *testing.T) {
	for _, blocks := range []int{1, 2, 10, 80} {
		mod, prof, err := Synthesize(DefaultSynth(blocks, int64(blocks)))
		if err != nil {
			t.Fatalf("blocks=%d: %v", blocks, err)
		}
		if len(mod.Funcs[0].Blocks) != blocks {
			t.Errorf("blocks=%d: got %d", blocks, len(mod.Funcs[0].Blocks))
		}
		if len(prof.Funcs[0].BlockCounts) != blocks {
			t.Errorf("profile shape mismatch")
		}
	}
	if _, _, err := Synthesize(SynthConfig{}); err == nil {
		t.Error("expected error for zero blocks")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, pa, err := Synthesize(DefaultSynth(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, pb, err := Synthesize(DefaultSynth(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Funcs[0].Body() != b.Funcs[0].Body() {
		t.Error("synthetic modules differ across identical seeds")
	}
	for bi := range pa.Funcs[0].EdgeCounts {
		for si := range pa.Funcs[0].EdgeCounts[bi] {
			if pa.Funcs[0].EdgeCounts[bi][si] != pb.Funcs[0].EdgeCounts[bi][si] {
				t.Fatal("synthetic profiles differ across identical seeds")
			}
		}
	}
}

// TestSynthAlignmentEndToEnd runs the whole alignment stack over
// synthetic CFGs of varying size, checking validity and improvement.
func TestSynthAlignmentEndToEnd(t *testing.T) {
	m := machine.Alpha21164()
	for _, blocks := range []int{5, 25, 60} {
		mod, prof, err := Synthesize(DefaultSynth(blocks, int64(blocks)*31))
		if err != nil {
			t.Fatal(err)
		}
		orig := align.Run(context.Background(), align.Original{}, mod, prof, m, align.RunOptions{}).Penalty
		tspL := align.Run(context.Background(), align.NewTSP(1), mod, prof, m, align.RunOptions{}).Layout
		if err := tspL.Validate(mod); err != nil {
			t.Fatalf("blocks=%d: %v", blocks, err)
		}
		tspPen := layout.ModulePenalty(mod, tspL, prof, m)
		if tspPen > orig {
			t.Errorf("blocks=%d: TSP %d worse than original %d", blocks, tspPen, orig)
		}
	}
}
