package layout_test

import (
	"context"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

func TestMetricsAccounting(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)
	met := layout.ModuleMetrics(mod, l, prof)
	if met.Transfers == 0 {
		t.Fatal("no transfers measured")
	}
	if met.Fallthroughs+met.Taken != met.Transfers {
		t.Errorf("fallthroughs %d + taken %d != transfers %d", met.Fallthroughs, met.Taken, met.Transfers)
	}
	if met.ViaFixup > met.Taken {
		t.Errorf("fixups %d exceed taken %d", met.ViaFixup, met.Taken)
	}
	rate := met.FallthroughRate()
	if rate <= 0 || rate >= 1 {
		t.Errorf("fall-through rate %.3f out of (0,1)", rate)
	}
}

// TestAlignmentRaisesFallthroughRate is the mechanism check: better
// layouts convert taken transfers into fall-throughs.
func TestAlignmentRaisesFallthroughRate(t *testing.T) {
	mod, prof := compileBranchy(t)
	m := machine.Alpha21164()
	orig := layout.ModuleMetrics(mod, layout.Identity(mod, prof, m), prof)
	aligned := layout.ModuleMetrics(mod, align.Run(context.Background(), align.TSP{}, mod, prof, m, align.RunOptions{Seed: 1}).Layout, prof)
	if aligned.FallthroughRate() <= orig.FallthroughRate() {
		t.Errorf("TSP fall-through rate %.3f not above original %.3f",
			aligned.FallthroughRate(), orig.FallthroughRate())
	}
	// Transfers are layout-independent.
	if aligned.Transfers != orig.Transfers {
		t.Errorf("transfer counts changed: %d vs %d", aligned.Transfers, orig.Transfers)
	}
}

func TestMetricsEmptyProfile(t *testing.T) {
	var m layout.Metrics
	if m.FallthroughRate() != 0 {
		t.Error("zero-transfer rate should be 0")
	}
}
