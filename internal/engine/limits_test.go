package engine

import (
	"context"
	"errors"
	"math"
	"math/big"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
)

// TestMaxFuncBlocksArithmetic pins the derivation of MaxFuncBlocks: at
// the cap the worst-case Forbid() sum fits in int64, one block more and
// it may not, and no built-in model charges more than maxEventPenalty
// for one execution.
func TestMaxFuncBlocksArithmetic(t *testing.T) {
	worst := func(n int64) *big.Int {
		s := new(big.Int).Mul(big.NewInt(n-1), big.NewInt(interp.MaxFuncCount*maxEventPenalty))
		return s.Add(s, big.NewInt(1))
	}
	limit := big.NewInt(math.MaxInt64)
	if worst(MaxFuncBlocks).Cmp(limit) > 0 {
		t.Fatalf("worst-case Forbid at %d blocks exceeds int64", MaxFuncBlocks)
	}
	if worst(MaxFuncBlocks+1).Cmp(limit) <= 0 {
		t.Fatalf("cap %d is not the largest safe block count", MaxFuncBlocks)
	}
	for _, m := range machine.Models() {
		for _, c := range []machine.Cost{m.JumpCost, m.CondFallthroughCorrect, m.CondTakenCorrect, m.CondMispredict,
			m.MultiCorrectFallthrough, m.MultiCorrectTaken, m.MultiMispredict} {
			if c > maxEventPenalty {
				t.Fatalf("model %s charges %d cycles, above maxEventPenalty %d", m.Name, c, maxEventPenalty)
			}
		}
	}
}

// TestForbidPositiveAtBlockCap builds the DTSP matrix of a function at
// MaxFuncBlocks blocks whose edge counts share interp.MaxFuncCount
// evenly (short of it by less than one count per edge), under the
// deepest model, and requires a positive Forbid() above every
// row default. One block more is rejected before any matrix is built.
func TestForbidPositiveAtBlockCap(t *testing.T) {
	mod, prof, err := bench.Synthesize(bench.DefaultSynth(MaxFuncBlocks, 3))
	if err != nil {
		t.Fatal(err)
	}
	fp := prof.Funcs[0]
	edges := 0
	for _, row := range fp.EdgeCounts {
		edges += len(row)
	}
	per := int64(interp.MaxFuncCount) / int64(edges)
	for _, row := range fp.EdgeCounts {
		for i := range row {
			row[i] = per
		}
	}
	if err := prof.CheckShape(mod); err != nil {
		t.Fatal(err)
	}
	sp := align.BuildSparseMatrix(mod.Funcs[0], fp, machine.DeepPipe(), nil)
	forbid := sp.Forbid()
	if forbid <= 0 {
		t.Fatalf("Forbid() = %d at %d blocks: the sum wrapped", forbid, MaxFuncBlocks)
	}
	for i := 0; i < sp.Len(); i++ {
		if d := sp.RowDefault(i); d >= forbid {
			t.Fatalf("row %d default %d is not below Forbid() %d", i, d, forbid)
		}
	}

	over, overProf, err := bench.Synthesize(bench.DefaultSynth(MaxFuncBlocks+1, 3))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1})
	_, err = e.Align(context.Background(), Request{
		Inputs: []byte("over the block cap"),
		Load: func(*obs.Span) (*ir.Module, *interp.Profile, error) {
			return over, overProf, nil
		},
		Model: machine.DeepPipe(),
	})
	if !errors.Is(err, ErrFuncTooLarge) {
		t.Fatalf("Align over the block cap: err = %v, want ErrFuncTooLarge", err)
	}
}
