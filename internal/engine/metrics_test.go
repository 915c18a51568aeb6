package engine

import (
	"context"
	"strings"
	"testing"

	"branchalign/internal/machine"
	"branchalign/internal/obs"
)

// TestEngineMetricsPlane drives one engine through hit/miss/eviction
// traffic against an injected registry and checks that the exposition
// and Stats() tell the same story — the engine's counters live only in
// the registry, so the two cannot drift.
func TestEngineMetricsPlane(t *testing.T) {
	mod, prof := branchy(t)
	model := machine.Alpha21164()
	reg := obs.NewRegistry()
	e := New(Options{Registry: reg, CacheEntries: 1})

	ctx := context.Background()
	req := Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: model, Seed: 1}
	if _, err := e.Align(ctx, req); err != nil { // miss + solve
		t.Fatal(err)
	}
	if _, err := e.Align(ctx, req); err != nil { // hit
		t.Fatal(err)
	}
	req2 := req
	req2.Seed = 2
	if _, err := e.Align(ctx, req2); err != nil { // miss + solve, evicts seed 1
		t.Fatal(err)
	}
	if _, err := e.Align(ctx, req); err != nil { // miss again (evicted), load-cache hit
		t.Fatal(err)
	}

	want := map[string]float64{
		"engine_requests_total":        4,
		"engine_cache_hits_total":      1,
		"engine_cache_misses_total":    3,
		"engine_cache_evictions_total": 2,
		"engine_solves_total":          3,
		"engine_truncated_total":       0,
		"engine_errors_total":          0,
		"engine_in_flight":             0,
		"engine_cache_entries":         1,
		"engine_load_cache_hits_total": 1,
		"engine_load_cache_entries":    1,
	}
	for name, v := range want {
		if got := reg.Sum(name, nil); got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := reg.Sum("engine_solve_duration_seconds", map[string]string{"cache": "hit"}); got != 1 {
		t.Errorf("solve_duration{cache=hit} count %v, want 1", got)
	}
	if got := reg.Sum("engine_solve_duration_seconds", map[string]string{"cache": "miss", "profile_mode": "measured"}); got != 3 {
		t.Errorf("solve_duration{cache=miss} count %v, want 3", got)
	}

	// Stats() must read the same cells.
	st := e.Stats()
	if st.Requests != 4 || st.CacheHits != 1 || st.LoadHits != 1 || st.Solved != 3 || st.Errors != 0 || st.InFlight != 0 {
		t.Errorf("Stats drifted from registry: %+v", st)
	}

	// The pool families must be registered and collectable.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{
		"# TYPE work_pool_capacity gauge",
		"# TYPE work_pool_active_tasks gauge",
		"# TYPE work_pool_queue_depth gauge",
		"# TYPE work_pool_queue_wait_seconds histogram",
		"# TYPE engine_solve_duration_seconds histogram",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing %q", fam)
		}
	}
	if !strings.Contains(out, `engine_solve_duration_seconds_bucket{profile_mode="measured",cache="miss",algorithm="tsp",le="+Inf"} 3`) {
		t.Errorf("missing labeled +Inf bucket in:\n%s", out)
	}
}

// TestEngineWithoutRegistry pins that a registry-less engine still
// counts: Stats() is backed by a private registry, so existing callers
// see identical behavior.
func TestEngineWithoutRegistry(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	if _, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: machine.Alpha21164(), Seed: 9}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Requests != 1 || st.Solved != 1 || st.CacheHits != 0 {
		t.Errorf("private-registry stats wrong: %+v", st)
	}
}
