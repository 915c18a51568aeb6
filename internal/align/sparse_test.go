package align

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"branchalign/internal/bench"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/tsp"
	"branchalign/internal/work"
)

// TestQuickSparseMatrixMatchesDenseOnSynthCFGs: the sparse DTSP instance
// agrees entry-for-entry with its definition, the Section 2.2 reduction
// c(B, X) = layout.SuccessorCost (X = -1, end of layout, for column 0),
// on random CFGs (switch-heavy functions, zero-count edges, degenerate
// shapes).
func TestQuickSparseMatrixMatchesDenseOnSynthCFGs(t *testing.T) {
	m := machine.Alpha21164()
	f := func(blocksRaw, seedRaw uint16) bool {
		blocks := int(blocksRaw%40) + 1
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(seedRaw)))
		if err != nil {
			return false
		}
		fn := mod.Funcs[0]
		fp := prof.Funcs[0]
		pred := layout.Predictions(fn, fp)
		sp := BuildSparseMatrix(fn, fp, m, nil)
		if sp.Len() != blocks {
			return false
		}
		for b := 0; b < blocks; b++ {
			for x := 0; x < blocks; x++ {
				if b == x {
					continue
				}
				succ := x
				if x == 0 {
					succ = -1 // closing the cycle: b is the last block
				}
				if want := layout.SuccessorCost(fn, fp, pred, b, succ, m); sp.At(b, x) != want {
					t.Logf("blocks=%d seed=%d: At(%d,%d) = %d, SuccessorCost %d",
						blocks, seedRaw, b, x, sp.At(b, x), want)
					return false
				}
			}
		}
		// The instance is O(V+E): no row stores more exceptions than the
		// block has successors.
		for b := 0; b < blocks; b++ {
			cols, _ := sp.Row(b)
			if len(cols) > len(fn.Blocks[b].Term.Succs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSolverIdenticalOnSparseAndDenseInstances: the full multi-start
// solver, the Held-Karp bound and the assignment bound return identical
// results on the sparse instance of a function and on its dense encoding,
// which stores every entry as an exception.
func TestQuickSolverIdenticalOnSparseAndDenseInstances(t *testing.T) {
	m := machine.Alpha21164()
	f := func(blocksRaw, seedRaw uint16) bool {
		// Half the cases have a few hundred blocks.
		blocks := int(blocksRaw>>1)%34 + 2
		opts := tsp.SolveOptions{Seed: int64(seedRaw)}
		if blocksRaw&1 == 1 {
			blocks = 257 + int(blocksRaw>>1)%64
			// A kick budget keeps the large sizes quick: it stops the
			// protocol 40 kicks into its first run.
			opts.MaxKicks = 40
		}
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(seedRaw)+501))
		if err != nil {
			return false
		}
		fn := mod.Funcs[0]
		sp := BuildSparseMatrix(fn, prof.Funcs[0], m, nil)
		dense := denseEncoding(sp)

		rs := tsp.Solve(sp, opts)
		rd := tsp.Solve(dense, opts)
		if !reflect.DeepEqual(rs, rd) {
			t.Logf("blocks=%d seed=%d: sparse solve %v (%d) != dense %v (%d)",
				blocks, seedRaw, rs.Tour, rs.Cost, rd.Tour, rd.Cost)
			return false
		}
		hkOpts := tsp.HeldKarpOptions{Iterations: 50}
		if tsp.HeldKarpBound(sp, hkOpts) != tsp.HeldKarpBound(dense, hkOpts) {
			return false
		}
		return tsp.AssignmentBound(sp) == tsp.AssignmentBound(dense)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// denseEncoding re-encodes s with every off-diagonal entry stored as an
// exception, as a dense matrix holds them.
func denseEncoding(s *tsp.SparseMatrix) *tsp.SparseMatrix {
	n := s.Len()
	b := tsp.NewSparseBuilder(n)
	for i := 0; i < n; i++ {
		var cols []int
		var vals []tsp.Cost
		for j := 0; j < n; j++ {
			if j != i {
				cols, vals = append(cols, j), append(vals, s.At(i, j))
			}
		}
		b.AddRow(0, cols, vals)
	}
	return b.Finish()
}

// TestQuickBoundChainOnSparsePath: with all bound consumers on the sparse
// path, AP <= HK-with-exact-floor and HK <= solver tour still hold per
// function (the vet invariant chain).
func TestQuickBoundChainOnSparsePath(t *testing.T) {
	m := machine.Alpha21164()
	f := func(blocksRaw, seedRaw uint16) bool {
		blocks := int(blocksRaw%30) + 3
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, int64(seedRaw)+77))
		if err != nil {
			return false
		}
		fn := mod.Funcs[0]
		sp := BuildSparseMatrix(fn, prof.Funcs[0], m, nil)
		res := SolveFunc(fn, sp, tsp.SolveOptions{Seed: 7}, 0)
		tour := tsp.CycleCost(sp, tsp.Tour(res.Order))
		hk := FuncHeldKarpBound(fn, sp, tsp.HeldKarpOptions{Iterations: 200}).Bound
		ap := tsp.AssignmentBound(sp)
		if hk > tour {
			t.Logf("blocks=%d seed=%d: HK %d > tour %d", blocks, seedRaw, hk, tour)
			return false
		}
		if ap > tour {
			t.Logf("blocks=%d seed=%d: AP %d > tour %d", blocks, seedRaw, ap, tour)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelBoundsMatchSequential: bounds computed by Run's fan-out
// over several workers are bit-identical to a sequential evaluation.
func TestParallelBoundsMatchSequential(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	hkOpts := tsp.HeldKarpOptions{Iterations: 100}
	var seqHK layout.Cost
	for fi, f := range mod.Funcs {
		seqHK += FuncHeldKarpBound(f, BuildSparseMatrix(f, prof.Funcs[fi], m, nil), hkOpts).Bound
	}
	res := Run(context.Background(), Original{}, mod, prof, m, RunOptions{Pool: work.NewPool(4), Bound: &hkOpts})
	if res.Bound != seqHK {
		t.Errorf("parallel HK bound %d != sequential %d", res.Bound, seqHK)
	}
}
