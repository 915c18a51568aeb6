package engine

import (
	"context"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/machine"
)

// TestCacheKeyIgnoresParallelism pins the cache-key contract: solver
// parallelism is a latency knob with bit-identical results, so it must
// not fragment the LRU. A sequentially solved entry is served straight
// to a parallel request (and the other way around).
func TestCacheKeyIgnoresParallelism(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{Workers: 4})
	base := Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: machine.Alpha21164(), Seed: 1}

	seq := base // Parallelism 0: runs solved sequentially
	first, err := e.Align(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}

	par := base
	par.Parallelism = 4
	second, err := e.Align(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("parallel request missed the cache entry solved sequentially")
	}
	sameLayout(t, first.Layout, second.Layout)

	// And the reverse, on a fresh engine: a parallel solve must serve a
	// sequential request.
	e2 := New(Options{Workers: 4})
	if res, err := e2.Align(context.Background(), par); err != nil || res.CacheHit {
		t.Fatalf("parallel cold solve: res=%+v err=%v", res, err)
	}
	res, err := e2.Align(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("sequential request missed the cache entry solved in parallel")
	}
	sameLayout(t, first.Layout, res.Layout)
}

// TestEngineParallelMatchesAligner extends the pure-front-end pin to
// per-run parallelism: an engine defaulting every request to parallel
// runs still serves the layout align.TSP computes sequentially.
func TestEngineParallelMatchesAligner(t *testing.T) {
	mod, prof := branchy(t)
	model := machine.Alpha21164()
	direct := align.Run(context.Background(), align.TSP{}, mod, prof, model, align.RunOptions{Seed: 3}).Layout

	e := New(Options{Workers: 3, Parallelism: 8})
	res, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: model, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameLayout(t, direct, res.Layout)
}

// TestStatsReportPool checks the pool gauges surface in Stats.
func TestStatsReportPool(t *testing.T) {
	e := New(Options{Workers: 5})
	s := e.Stats()
	if s.Workers != 5 {
		t.Fatalf("Stats.Workers = %d, want 5", s.Workers)
	}
	if s.InFlightRuns != 0 {
		t.Fatalf("Stats.InFlightRuns = %d on an idle engine", s.InFlightRuns)
	}
}
