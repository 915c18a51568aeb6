package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/check"
	"branchalign/internal/machine"
)

// TestEngineAlgorithmSelection: every registered aligner is reachable
// through Request.Algorithm, and the served layout is bit-identical to
// driving the aligner directly.
func TestEngineAlgorithmSelection(t *testing.T) {
	mod, prof := branchy(t)
	model := machine.Alpha21164()
	e := New(Options{})
	for _, name := range align.Names() {
		a, err := align.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		direct := align.Run(context.Background(), a, mod, prof, model, align.RunOptions{Seed: 5}).Layout
		res, err := e.Align(context.Background(), Request{
			Inputs: branchyInputs, Load: loaded(mod, prof), Model: model, Seed: 5, Algorithm: name,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameLayout(t, direct, res.Layout)
	}
}

// TestEngineUnknownAlgorithm: a bogus name is a validation error (the
// typed sentinel, wrapping the offending name), not a solve attempt.
func TestEngineUnknownAlgorithm(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	_, err := e.Align(context.Background(), Request{
		Inputs: branchyInputs, Load: loaded(mod, prof), Model: machine.Alpha21164(), Algorithm: "simulated-annealing",
	})
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	if !strings.Contains(err.Error(), "simulated-annealing") || !strings.Contains(err.Error(), "exttsp") {
		t.Errorf("error should name the request and the known algorithms: %v", err)
	}
	if e.Stats().Requests != 0 {
		t.Errorf("malformed request counted as accepted")
	}
}

// TestEngineAlgorithmCacheSeparation: the same module solved under tsp
// and then exttsp misses twice (two distinct cache entries), and each
// repeat hits its own entry — the algorithm name is a cache-key
// component.
func TestEngineAlgorithmCacheSeparation(t *testing.T) {
	mod, prof := branchy(t)
	model := machine.Alpha21164()
	e := New(Options{})
	for _, name := range []string{"tsp", "exttsp"} {
		res, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: model, Algorithm: name})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatalf("%s: first request hit the cache", name)
		}
	}
	layouts := map[string]int{}
	for _, name := range []string{"tsp", "exttsp"} {
		res, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: model, Algorithm: name})
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("%s: repeat request missed the cache", name)
		}
		layouts[name] = int(res.Penalty)
	}
	if st := e.Stats(); st.Solved != 2 || st.CacheHits != 2 {
		t.Errorf("stats %+v, want 2 solves and 2 hits", st)
	}
	// An empty algorithm is the tsp default: same cache entry.
	res, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Errorf("empty algorithm did not hit the tsp entry")
	}
	if int(res.Penalty) != layouts["tsp"] {
		t.Errorf("empty algorithm served penalty %d, tsp entry has %d", res.Penalty, layouts["tsp"])
	}
}

// TestEngineAlgorithmNoCrossTalk: concurrent requests for different
// algorithms never coalesce onto one solve — single-flight keys on the
// full request digest, which includes the algorithm.
func TestEngineAlgorithmNoCrossTalk(t *testing.T) {
	mod, prof := branchy(t)
	model := machine.Alpha21164()
	for trial := 0; trial < 4; trial++ {
		e := New(Options{})
		var wg sync.WaitGroup
		results := make([]*Result, 2)
		for i, name := range []string{"tsp", "exttsp"} {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				res, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: model, Algorithm: name})
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = res
			}(i, name)
		}
		wg.Wait()
		for i, res := range results {
			if res == nil {
				t.Fatal("missing result")
			}
			if res.Coalesced || res.CacheHit {
				t.Errorf("trial %d result %d: shared across algorithms (coalesced=%v hit=%v)",
					trial, i, res.Coalesced, res.CacheHit)
			}
		}
		if st := e.Stats(); st.Solved != 2 || st.Coalesced != 0 {
			t.Errorf("trial %d stats %+v, want 2 independent solves", trial, st)
		}
	}
}

// TestEngineAPPatchHonorsDeadline: the assignment-patching aligner's
// O(n^3) Hungarian solve polls the request context, so an "ap-patch"
// request on a 1,000-block function under a 50 ms deadline returns
// promptly with a truncated (compiler-order) but valid layout instead
// of running for seconds past its deadline.
func TestEngineAPPatchHonorsDeadline(t *testing.T) {
	mod, prof, err := bench.Synthesize(bench.DefaultSynth(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	model := machine.Alpha21164()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := New(Options{}).Align(ctx, Request{
		Inputs: []byte("synth1000"), Load: loaded(mod, prof), Model: model, Algorithm: "ap-patch",
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > time.Second {
		t.Errorf("ap-patch under a 50 ms deadline took %v, want < 1s", elapsed)
	}
	if !res.Truncated || !res.Funcs[0].Truncated {
		t.Errorf("result not flagged Truncated (result %v, func %v)", res.Truncated, res.Funcs[0].Truncated)
	}
	if r := check.Layouts(mod, prof, res.Layout, model); !r.OK() {
		t.Errorf("truncated layout fails check.Layouts:\n%s", r)
	}
}
