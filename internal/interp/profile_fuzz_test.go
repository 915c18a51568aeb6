package interp_test

import (
	"bytes"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/testutil"
)

func branchyModule(t testing.TB) *ir.Module {
	t.Helper()
	mod, err := testutil.Compile(testutil.BranchySource)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestReadProfileJSONRejectsOverflowingCounts feeds ReadProfileJSON the
// recorded BranchySource profile with every nonzero edge count raised to
// 2^61. Accepted, it would wrap main's tour cost to a negative int64;
// the per-function count cap rejects it. The cap is inclusive.
func TestReadProfileJSONRejectsOverflowingCounts(t *testing.T) {
	mod := branchyModule(t)
	raw, err := testutil.InflatedBranchyProfile(64, 1, 1<<61)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.ReadProfileJSON(bytes.NewReader(raw), mod); err == nil {
		t.Fatal("profile with 2^61 edge counts accepted")
	}

	main := mod.EntryFunc
	b := -1
	for bi, blk := range mod.Funcs[main].Blocks {
		if len(blk.Term.Succs) > 0 {
			b = bi
			break
		}
	}
	for _, c := range []struct {
		count int64
		ok    bool
	}{{interp.MaxFuncCount, true}, {interp.MaxFuncCount + 1, false}, {-1, false}} {
		prof := interp.NewProfile(mod)
		prof.Funcs[main].EdgeCounts[b][0] = c.count
		if err := prof.CheckShape(mod); (err == nil) != c.ok {
			t.Errorf("edge count %d: CheckShape error %v, want accepted = %v", c.count, err, c.ok)
		}
	}
}

// FuzzReadProfileJSON: any bytes either fail to read as a BranchySource
// profile or yield one that passes CheckShape and whose costs stay
// non-negative under every machine model — each DTSP matrix entry and
// the identity layout's module penalty.
func FuzzReadProfileJSON(f *testing.F) {
	mod := branchyModule(f)
	for _, count := range []int64{1 << 61, 7} {
		raw, err := testutil.InflatedBranchyProfile(64, 1, count)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("{garbage"))
	f.Add([]byte(`{"Funcs":[{"BlockCounts":[-1],"EdgeCounts":[[]]}],"CallCounts":[[0]]}`))
	f.Add([]byte(`{"funcs":[]}`))
	models := machine.Models()
	f.Fuzz(func(t *testing.T, data []byte) {
		prof, err := interp.ReadProfileJSON(bytes.NewReader(data), mod)
		if err != nil {
			return
		}
		if err := prof.CheckShape(mod); err != nil {
			t.Fatalf("accepted profile fails CheckShape: %v", err)
		}
		for _, m := range models {
			for fi, fn := range mod.Funcs {
				mat := align.BuildSparseMatrix(fn, prof.Funcs[fi], m, nil)
				for i := 0; i < mat.Len(); i++ {
					for j := 0; j < mat.Len(); j++ {
						if i != j && mat.At(i, j) < 0 {
							t.Fatalf("%s, %s: matrix entry (%d,%d) = %d", m.Name, fn.Name, i, j, mat.At(i, j))
						}
					}
				}
			}
			if p := layout.ModulePenalty(mod, layout.Identity(mod, prof, m), prof, m); p < 0 {
				t.Fatalf("%s: identity-layout penalty %d", m.Name, p)
			}
		}
	})
}
