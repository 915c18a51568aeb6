package layout_test

import (
	"testing"

	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/testutil"
)

func TestOrderFunctionsIsPermutation(t *testing.T) {
	mod, prof := compileBranchy(t)
	order := layout.OrderFunctions(mod, prof)
	if len(order) != len(mod.Funcs) {
		t.Fatalf("order has %d entries for %d functions", len(order), len(mod.Funcs))
	}
	seen := make([]bool, len(mod.Funcs))
	for _, fi := range order {
		if fi < 0 || fi >= len(mod.Funcs) || seen[fi] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[fi] = true
	}
}

func TestOrderFunctionsPlacesHotPairsNearby(t *testing.T) {
	src := `
func hot(x) { return x + 1; }
func cold(x) { return x * 2; }
func lukewarm(x) { return x - 1; }
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) { s = hot(s); }
	s = s + lukewarm(s);
	if (n < 0) { s = cold(s); }
	return s;
}
`
	mod, prof, _, err := testutil.CompileAndProfile(src, []interp.Input{interp.ScalarInput(1000)})
	if err != nil {
		t.Fatal(err)
	}
	order := layout.OrderFunctions(mod, prof)
	posOf := map[string]int{}
	for pos, fi := range order {
		posOf[mod.Funcs[fi].Name] = pos
	}
	distHot := posOf["main"] - posOf["hot"]
	if distHot < 0 {
		distHot = -distHot
	}
	distCold := posOf["main"] - posOf["cold"]
	if distCold < 0 {
		distCold = -distCold
	}
	if distHot >= distCold {
		t.Errorf("hot callee (dist %d) should be closer to main than the never-called one (dist %d); order %v",
			distHot, distCold, order)
	}
}

func TestOrderFunctionsZeroProfile(t *testing.T) {
	mod, _ := compileBranchy(t)
	order := layout.OrderFunctions(mod, interp.NewProfile(mod))
	if len(order) != len(mod.Funcs) {
		t.Fatalf("bad order on zero profile: %v", order)
	}
}

func TestPlaceModuleOrderedTilesWithoutOverlap(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	order := layout.OrderFunctions(mod, prof)
	pm := layout.PlaceModuleOrdered(mod, l, order)
	prevEnd := int64(0)
	for _, fi := range order {
		pf := pm.Funcs[fi]
		if pf == nil {
			t.Fatalf("function %d unplaced", fi)
		}
		if pf.Base < prevEnd {
			t.Fatalf("function %d overlaps (base %d < prev end %d)", fi, pf.Base, prevEnd)
		}
		prevEnd = pf.End
	}
	if got := codeSize(pm); got != prevEnd {
		t.Errorf("code size = %d, want %d", got, prevEnd)
	}
	// Same total size as module-order placement (modulo alignment slack).
	plain := layout.PlaceModule(mod, l)
	diff := codeSize(pm) - codeSize(plain)
	if diff < -int64(len(mod.Funcs)*layout.FuncAlignment) || diff > int64(len(mod.Funcs)*layout.FuncAlignment) {
		t.Errorf("ordered placement size %d far from plain %d", codeSize(pm), codeSize(plain))
	}
}

// codeSize is a placement's total size in slots: the highest function
// end address, whatever order the functions were placed in.
func codeSize(pm *layout.PlacedModule) int64 {
	var max int64
	for _, pf := range pm.Funcs {
		if pf != nil && pf.End > max {
			max = pf.End
		}
	}
	return max
}

// The pipe-level effect of procedure ordering is tested in package pipe
// (TestProcedureOrderingReducesConflictMisses); here we check the
// ordering decision itself on the conflict module.
func TestOrderFunctionsSinksColdPad(t *testing.T) {
	mod, prof, _, err := testutil.CompileAndProfile(testutil.ConflictSource(), []interp.Input{interp.ScalarInput(5000)})
	if err != nil {
		t.Fatal(err)
	}
	order := layout.OrderFunctions(mod, prof)
	if mod.Funcs[order[len(order)-1]].Name != "coldPad" {
		t.Errorf("coldPad should be placed last, got order %v", order)
	}
}
