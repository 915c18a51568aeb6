package pipe

import (
	"context"
	"strings"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

// TestSelfCheckCleanRun: a healthy module/layout pair passes the
// SelfCheck-instrumented Run, including the post-run flow-conservation
// audit, and produces the same statistics as an unchecked run.
func TestSelfCheckCleanRun(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	l := align.Run(context.Background(), align.NewTSP(1), mod, prof, m, align.RunOptions{}).Layout

	cfg := DefaultConfig()
	plain, _, err := Run(mod, l, inputs, cfg, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.SelfCheck = true
	checked, _, err := Run(mod, l, inputs, cfg, interp.Options{})
	if err != nil {
		t.Fatalf("self-checked run failed on healthy inputs: %v", err)
	}
	if checked != plain {
		t.Errorf("SelfCheck changed simulation stats:\nplain   %+v\nchecked %+v", plain, checked)
	}
}

// TestSelfCheckCatchesCorruptLayout: corrupting a layout order (duplicate
// entry — no longer a permutation) makes the self-checked Run and
// ReplayChecked fail before simulating, and Replay panic.
func TestSelfCheckCatchesCorruptLayout(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	l := align.Run(context.Background(), align.NewTSP(1), mod, prof, m, align.RunOptions{}).Layout

	// Find a function with enough blocks to corrupt.
	fi := -1
	for i, fl := range l.Funcs {
		if len(fl.Order) >= 2 {
			fi = i
			break
		}
	}
	if fi < 0 {
		t.Fatal("no multi-block function in benchmark module")
	}
	saved := l.Funcs[fi].Order[1]
	l.Funcs[fi].Order[1] = l.Funcs[fi].Order[0]
	defer func() { l.Funcs[fi].Order[1] = saved }()

	cfg := DefaultConfig()
	cfg.SelfCheck = true
	if _, _, err := Run(mod, l, inputs, cfg, interp.Options{}); err == nil {
		t.Error("Run accepted a layout with a duplicated order entry")
	} else if !strings.Contains(err.Error(), "self-check") {
		t.Errorf("Run error does not mention self-check: %v", err)
	}

	tr, _, err := Record(mod, inputs, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayChecked(tr, mod, l, cfg); err == nil {
		t.Error("ReplayChecked accepted a corrupt layout")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Replay with SelfCheck did not panic on a corrupt layout")
			}
		}()
		Replay(tr, mod, l, cfg)
	}()
}

// TestSelfCheckCatchesTamperedProfile: handing Run a pre-filled profile
// whose counts violate flow conservation trips the post-run audit. (Run
// accumulates into the caller's profile, so seeding it with garbage
// yields a non-conserving total.)
func TestSelfCheckCatchesTamperedProfile(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	l := layout.Identity(mod, prof, m)

	bad := interp.NewProfile(mod)
	bad.Funcs[0].BlockCounts[0] += 17 // phantom executions with no edges

	cfg := DefaultConfig()
	cfg.SelfCheck = true
	if _, _, err := Run(mod, l, inputs, cfg, interp.Options{Profile: bad}); err == nil {
		t.Error("Run accepted a profile seeded with non-conserving counts")
	} else if !strings.Contains(err.Error(), "self-check after run") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestSelfCheckOrOptLayouts runs the full pipeline under SelfCheck with
// the solver's Or-opt family on (the default) and off: both layouts must
// pass the layout audit and the post-run flow-conservation check, and
// for each the self-checked simulation must equal the unchecked one.
// This is the end-to-end gate on the Or-opt move family — an invalid
// relocation would corrupt a block order or break flow conservation and
// fail here.
func TestSelfCheckOrOptLayouts(t *testing.T) {
	mod, prof, inputs := setup(t)
	m := machine.Alpha21164()
	for _, disable := range []bool{false, true} {
		al := align.NewTSP(1)
		al.Opts.DisableOrOpt = disable
		l := align.Run(context.Background(), al, mod, prof, m, align.RunOptions{}).Layout

		cfg := DefaultConfig()
		plain, _, err := Run(mod, l, inputs, cfg, interp.Options{})
		if err != nil {
			t.Fatalf("DisableOrOpt=%v: %v", disable, err)
		}
		cfg.SelfCheck = true
		checked, _, err := Run(mod, l, inputs, cfg, interp.Options{})
		if err != nil {
			t.Fatalf("DisableOrOpt=%v: self-checked run failed: %v", disable, err)
		}
		if checked != plain {
			t.Errorf("DisableOrOpt=%v: SelfCheck changed simulation stats:\nplain   %+v\nchecked %+v",
				disable, plain, checked)
		}
	}
}
