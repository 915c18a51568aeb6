package layout_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/testutil"
)

// refExtTSPScore is a deliberately naive re-derivation of the ExtTSP
// objective used to cross-check ExtTSPScore: it walks the layout order
// (not the block index space), recomputes byte addresses from scratch,
// and spells the kernel out as literal arithmetic instead of calling
// ArcScore, with the weights and windows of arXiv:1809.04676 §3 written
// out again. Any bug shared with the production path would have to be
// introduced twice, in different shapes.
func refExtTSPScore(f *ir.Func, fp *interp.FuncProfile, order []int) float64 {
	const fwdWindow, bwdWindow = 1024, 640
	start := map[int]int{}
	addr := 0
	for _, b := range order {
		start[b] = addr
		n := f.Blocks[b].Size()
		if f.Blocks[b].Term.Kind == ir.TermBr {
			n++
		}
		addr += n * layout.BytesPerSlot
	}
	var total float64
	for _, b := range order {
		blk := f.Blocks[b]
		n := blk.Size()
		if blk.Term.Kind == ir.TermBr {
			n++
		}
		srcEnd := start[b] + n*layout.BytesPerSlot
		for si, to := range blk.Term.Succs {
			w := float64(fp.EdgeCounts[b][si])
			if w == 0 {
				continue
			}
			dst := start[to]
			if dst == srcEnd {
				total += w
			} else if dst > srcEnd && dst-srcEnd < fwdWindow {
				total += w * 0.1 * (float64(fwdWindow-(dst-srcEnd)) / fwdWindow)
			} else if dst < srcEnd && srcEnd-dst < bwdWindow {
				total += w * 0.1 * (float64(bwdWindow-(srcEnd-dst)) / bwdWindow)
			}
		}
	}
	return total
}

// closeEnough compares scores up to relative 1e-9: the production path
// and the reference sum arcs in different orders, so the last ulp of
// the float64 accumulation may differ.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// TestExtTSPScoreMatchesReferenceOnBenchmark pins the production scorer
// against the naive reference on a real compiled CFG, for the identity
// order and a spread of random orders.
func TestExtTSPScoreMatchesReferenceOnBenchmark(t *testing.T) {
	mod, prof := compileBranchy(t)
	rng := rand.New(rand.NewSource(11))
	for fi, f := range mod.Funcs {
		fp := prof.Funcs[fi]
		for trial := 0; trial < 20; trial++ {
			order := randomOrder(len(f.Blocks), rng)
			if trial == 0 { // include the identity order
				for i := range order {
					order[i] = i
				}
			}
			got := layout.ExtTSPScore(f, fp, order)
			want := refExtTSPScore(f, fp, order)
			if !closeEnough(got, want) {
				t.Fatalf("func %d trial %d: ExtTSPScore=%g, reference=%g", fi, trial, got, want)
			}
		}
	}
}

// TestQuickExtTSPScoreMatchesReference is the property form: synthetic
// random CFGs of varying shape, random valid orders, production scorer
// == naive reference.
func TestQuickExtTSPScoreMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := 2 + rng.Intn(30)
		mod, prof, err := bench.Synthesize(bench.DefaultSynth(blocks, seed))
		if err != nil {
			t.Logf("seed %d: synthesize: %v", seed, err)
			return false
		}
		for fi, f := range mod.Funcs {
			fp := prof.Funcs[fi]
			order := randomOrder(len(f.Blocks), rng)
			got := layout.ExtTSPScore(f, fp, order)
			want := refExtTSPScore(f, fp, order)
			if !closeEnough(got, want) {
				t.Logf("seed %d func %d: ExtTSPScore=%g, reference=%g", seed, fi, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExtTSPScoreEdgeCases pins the degenerate shapes: a single-block
// function scores zero (a return block has no scored arcs), and a
// two-block fall-through scores exactly weight·FallthroughWeight.
func TestExtTSPScoreEdgeCases(t *testing.T) {

	mod, prof, _, err := testutil.CompileAndProfile(
		`func main(n) { return n; }`, []interp.Input{interp.ScalarInput(5)})
	if err != nil {
		t.Fatal(err)
	}
	f := mod.Funcs[mod.EntryFunc]
	if len(f.Blocks) != 1 {
		t.Fatalf("expected single-block function, got %d blocks", len(f.Blocks))
	}
	if got := layout.ExtTSPScore(f, prof.Funcs[mod.EntryFunc], []int{0}); got != 0 {
		t.Errorf("single-block score = %g, want 0", got)
	}

	// A straight-line loop body: every executed arc in identity order is
	// either a perfect fall-through or a short jump, so the score must be
	// strictly positive and match the reference exactly.
	mod, prof, _, err = testutil.CompileAndProfile(`
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) { s = s + 1; }
	return s;
}
`, []interp.Input{interp.ScalarInput(10)})
	if err != nil {
		t.Fatal(err)
	}
	f = mod.Funcs[mod.EntryFunc]
	fp := prof.Funcs[mod.EntryFunc]
	order := make([]int, len(f.Blocks))
	for i := range order {
		order[i] = i
	}
	got := layout.ExtTSPScore(f, fp, order)
	if got <= 0 {
		t.Errorf("loop identity score = %g, want > 0", got)
	}
	if want := refExtTSPScore(f, fp, order); !closeEnough(got, want) {
		t.Errorf("loop identity score = %g, reference = %g", got, want)
	}
}
