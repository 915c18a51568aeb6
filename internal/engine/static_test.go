package engine

import (
	"context"
	"errors"
	"testing"

	"branchalign/internal/interp"
	"branchalign/internal/machine"
	"branchalign/internal/staticprof"
)

// TestEngineValidationErrors pins the distinct sentinel per malformed
// request shape — balignd turns each into a structured error body.
func TestEngineValidationErrors(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	ctx := context.Background()

	if _, err := e.Align(ctx, Request{Inputs: branchyInputs}); !errors.Is(err, ErrNoModule) {
		t.Errorf("no Load: got %v, want ErrNoModule", err)
	}
	if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: loaded(nil, prof)}); !errors.Is(err, ErrNoModule) {
		t.Errorf("nil module: got %v, want ErrNoModule", err)
	}
	if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: loaded(mod, nil)}); !errors.Is(err, ErrNoProfile) {
		t.Errorf("nil profile: got %v, want ErrNoProfile", err)
	}
	if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: loaded(mod, prof), StaticProfile: true}); !errors.Is(err, ErrProfileConflict) {
		t.Errorf("profile + static: got %v, want ErrProfileConflict", err)
	}
	// Shape mismatch stays a plain (non-sentinel) error.
	if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: loaded(mod, &interp.Profile{})}); err == nil {
		t.Error("mismatched profile accepted")
	} else if errors.Is(err, ErrNoProfile) || errors.Is(err, ErrNoModule) {
		t.Errorf("shape mismatch mapped onto wrong sentinel: %v", err)
	}
}

// TestEngineStaticProfile: a profile-less request with StaticProfile set
// must be served end to end, bit-identical to aligning against
// staticprof.Estimate directly.
func TestEngineStaticProfile(t *testing.T) {
	mod, _ := branchy(t)
	model := machine.Alpha21164()
	e := New(Options{})

	res, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, nil), StaticProfile: true, Model: model, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ProfileEstimated {
		t.Error("result not marked ProfileEstimated")
	}
	if res.Truncated {
		t.Error("unbudgeted static request marked truncated")
	}

	est, _ := staticprof.Estimate(mod)
	direct, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, est), Model: model, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameLayout(t, res.Layout, direct.Layout)
	if direct.ProfileEstimated {
		t.Error("measured-profile request marked ProfileEstimated")
	}
}

// TestEngineStaticMeasuredNeverCollide is the acceptance criterion: an
// estimated-profile result must never be served to a measured-profile
// request or vice versa, even when both carry the same Inputs and the
// measured profile is byte-identical to the estimate.
func TestEngineStaticMeasuredNeverCollide(t *testing.T) {
	mod, _ := branchy(t)
	model := machine.Alpha21164()
	e := New(Options{})
	ctx := context.Background()

	static, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: loaded(mod, nil), StaticProfile: true, Model: model, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if static.CacheHit {
		t.Fatal("first static request hit the cache")
	}

	// Same static request again: cache hit, still flagged estimated.
	again, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: loaded(mod, nil), StaticProfile: true, Model: model, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !again.ProfileEstimated {
		t.Errorf("static re-request: CacheHit=%v ProfileEstimated=%v, want true/true", again.CacheHit, again.ProfileEstimated)
	}

	// The worst case for key collision: a *measured* request whose
	// profile is the estimator's output bit for bit. It must miss.
	est, _ := staticprof.Estimate(mod)
	measured, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: loaded(mod, est), Model: model, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if measured.CacheHit {
		t.Fatal("measured request with estimator-identical profile served the static cache entry")
	}
	if measured.ProfileEstimated {
		t.Error("measured request marked ProfileEstimated")
	}

	st := e.Stats()
	if st.Solved != 2 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 2 solved / 1 hit", st)
	}
}
