package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
)

// TestRequestKey pins the key contract field by field: every input that
// can change the computed layout changes the key, and nothing else does.
func TestRequestKey(t *testing.T) {
	base := Request{Inputs: []byte("ab"), Model: machine.Alpha21164(), Algorithm: "tsp", Seed: 1}
	key := base.Key()

	differ := map[string]func(*Request){
		"inputs":         func(r *Request) { r.Inputs = []byte("ac") },
		"inputs length":  func(r *Request) { r.Inputs = []byte("ab\x00") },
		"profile mode":   func(r *Request) { r.StaticProfile = true },
		"model":          func(r *Request) { r.Model = machine.DeepPipe() },
		"model name":     func(r *Request) { r.Model.Name = "other" },
		"model cost":     func(r *Request) { r.Model.CondMispredict++ },
		"algorithm":      func(r *Request) { r.Algorithm = "exttsp" },
		"seed":           func(r *Request) { r.Seed = 2 },
		"max kicks":      func(r *Request) { r.MaxKicks = 5 },
		"bound":          func(r *Request) { r.Bound = true },
		"hk iterations":  func(r *Request) { r.HKIterations = 10 },
		"bytes to model": func(r *Request) { r.Inputs, r.Model.Name = []byte("a"), "b"+r.Model.Name },
	}
	for name, mut := range differ {
		r := base
		mut(&r)
		if r.Key() == key {
			t.Errorf("%s: key unchanged", name)
		}
	}

	same := map[string]func(*Request){
		"parallelism":     func(r *Request) { r.Parallelism = 4 },
		"telemetry":       func(r *Request) { r.Obs = obs.New(&obs.MemorySink{}).Start("root") },
		"load":            func(r *Request) { r.Load = loaded(nil, nil) },
		"default alg":     func(r *Request) { r.Algorithm = "" },
		"copied inputs":   func(r *Request) { r.Inputs = append([]byte(nil), r.Inputs...) },
		"identical model": func(r *Request) { r.Model = machine.Alpha21164() },
	}
	for name, mut := range same {
		r := base
		mut(&r)
		if r.Key() != key {
			t.Errorf("%s: key changed", name)
		}
	}
}

// countingLoad returns a Load that counts its calls and, when fail is
// set, fails every call.
func countingLoad(mod *ir.Module, prof *interp.Profile, fail error) (func(*obs.Span) (*ir.Module, *interp.Profile, error), *atomic.Int64) {
	var n atomic.Int64
	return func(*obs.Span) (*ir.Module, *interp.Profile, error) {
		n.Add(1)
		if fail != nil {
			return nil, nil, fail
		}
		return mod, prof, nil
	}, &n
}

// TestEngineLoadCount pins that only the leader of a miss loads: a cache
// hit or a coalesced duplicate never runs Load, and a failed Load is
// handed to every caller and never cached.
func TestEngineLoadCount(t *testing.T) {
	mod, prof := branchy(t)
	ctx := context.Background()
	model := machine.Alpha21164()

	t.Run("sequential", func(t *testing.T) {
		load, calls := countingLoad(mod, prof, nil)
		e := New(Options{})
		for i := 0; i < 3; i++ {
			res, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: load, Model: model, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit != (i > 0) {
				t.Fatalf("request %d: cache_hit=%v", i, res.CacheHit)
			}
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("Load ran %d times for 3 identical requests, want 1", n)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		load, calls := countingLoad(mod, prof, nil)
		e := New(Options{Workers: 2})
		const N = 16
		var wg sync.WaitGroup
		for i := 0; i < N; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: load, Model: model, Seed: 2}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if n := calls.Load(); n != 1 {
			t.Fatalf("Load ran %d times for %d concurrent identical requests, want 1", n, N)
		}
		if st := e.Stats(); st.Solved != 1 || st.Coalesced+st.CacheHits != N-1 {
			t.Fatalf("stats %+v, want 1 solve and %d hits or coalesced", st, N-1)
		}
	})

	t.Run("failing", func(t *testing.T) {
		boom := errors.New("compile failed")
		load, calls := countingLoad(nil, nil, boom)
		e := New(Options{})
		const N = 16
		var wg sync.WaitGroup
		for i := 0; i < N; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: load, Model: model}); !errors.Is(err, boom) {
					t.Errorf("err = %v, want the Load error", err)
				}
			}()
		}
		wg.Wait()
		n := calls.Load()
		if st := e.Stats(); n < 1 || n+st.Coalesced != N || st.CacheHits != 0 || st.Solved != 0 {
			t.Fatalf("%d Loads, stats %+v: want every request to load or share a leader's error", n, st)
		}
		// Not cached: the next request loads again.
		if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: load, Model: model}); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the Load error", err)
		}
		if calls.Load() != n+1 {
			t.Fatal("a failed Load was cached")
		}
	})

	t.Run("seeds", func(t *testing.T) {
		// Seed 1 records the load key, seed 2 loads again and the load
		// is retained, seeds 3 and 4 reuse it.
		load, calls := countingLoad(mod, prof, nil)
		e := New(Options{})
		for seed := int64(1); seed <= 4; seed++ {
			res, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: load, Model: model, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit || res.Coalesced {
				t.Fatalf("seed %d: hit=%v coalesced=%v, want a solve", seed, res.CacheHit, res.Coalesced)
			}
		}
		if n := calls.Load(); n != 2 {
			t.Fatalf("Load ran %d times for seeds 1-4 of one Inputs, want 2", n)
		}
		if st := e.Stats(); st.LoadHits != 2 || st.Solved != 4 {
			t.Fatalf("stats %+v, want 2 load hits and 4 solves", st)
		}
	})

	t.Run("seen once", func(t *testing.T) {
		load, _ := countingLoad(mod, prof, nil)
		e := New(Options{})
		if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: load, Model: model, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if n := e.loads.retained(); n != 0 {
			t.Fatalf("%d loads retained after one sighting, want 0", n)
		}
		if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: load, Model: model, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if n := e.loads.retained(); n != 1 {
			t.Fatalf("%d loads retained after two sightings, want 1", n)
		}
	})

	t.Run("failing seeds", func(t *testing.T) {
		boom := errors.New("compile failed")
		load, calls := countingLoad(nil, nil, boom)
		e := New(Options{})
		for seed := int64(1); seed <= 4; seed++ {
			if _, err := e.Align(ctx, Request{Inputs: branchyInputs, Load: load, Model: model, Seed: seed}); !errors.Is(err, boom) {
				t.Fatalf("seed %d: err = %v, want the Load error", seed, err)
			}
		}
		if n := calls.Load(); n != 4 {
			t.Fatalf("Load ran %d times for 4 failing requests, want 4", n)
		}
		if st := e.Stats(); st.LoadHits != 0 || st.Errors != 4 {
			t.Fatalf("stats %+v, want no load hits and 4 errors", st)
		}
	})

	t.Run("profile modes", func(t *testing.T) {
		// One Inputs in both modes: each mode records, retains and
		// reuses its own load, and a static request never gets the
		// measured profile or the reverse.
		measured, mCalls := countingLoad(mod, prof, nil)
		static, sCalls := countingLoad(mod, nil, nil)
		e := New(Options{})
		for seed := int64(1); seed <= 4; seed++ {
			for _, st := range []bool{false, true} {
				req := Request{Inputs: branchyInputs, Load: measured, Model: model, Seed: seed, StaticProfile: st}
				if st {
					req.Load = static
				}
				res, err := e.Align(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if res.ProfileEstimated != st {
					t.Fatalf("seed %d static=%v: result ProfileEstimated=%v", seed, st, res.ProfileEstimated)
				}
			}
		}
		if m, s := mCalls.Load(), sCalls.Load(); m != 2 || s != 2 {
			t.Fatalf("measured Load ran %d times, static %d, want 2 each", m, s)
		}
		if n := e.loads.retained(); n != 2 {
			t.Fatalf("%d loads retained, want one per profile mode", n)
		}
	})
}

// TestEngineLoadSpan pins the engine.load span: it wraps Load on a miss,
// under the request's span, and a hit records none. A miss served by the
// load cache records the span with cached=true and without Load's
// annotations.
func TestEngineLoadSpan(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	for i, want := range []struct {
		seed   int64
		spans  int
		cached bool
	}{
		{seed: 1, spans: 1},               // first sighting: Load
		{seed: 1, spans: 0},               // result-cache hit
		{seed: 2, spans: 1},               // second sighting: Load, retained
		{seed: 3, spans: 1, cached: true}, // load-cache hit
	} {
		sink := &obs.MemorySink{}
		tr := obs.New(sink)
		root := tr.Start("root")
		load := func(sp *obs.Span) (*ir.Module, *interp.Profile, error) {
			sp.SetAttrs(obs.String("input", "label"), obs.Int("steps", 1))
			return mod, prof, nil
		}
		req := Request{Inputs: branchyInputs, Load: load, Model: machine.Alpha21164(), Seed: want.seed, Obs: root}
		if _, err := e.Align(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		root.End()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, ev := range sink.Events() {
			if ev.Type != "span" || ev.Name != "engine.load" {
				continue
			}
			got++
			if ev.Parent == 0 {
				t.Errorf("request %d: engine.load is not under the request's span", i)
			}
			_, cached := ev.Attrs["cached"]
			_, steps := ev.Attrs["steps"]
			switch {
			case want.cached && (ev.Attrs["cached"] != true || steps || ev.Str("input") != ""):
				t.Errorf("request %d: engine.load attrs %v, want cached=true and no Load annotation", i, ev.Attrs)
			case !want.cached && (cached || ev.Str("input") != "label"):
				t.Errorf("request %d: engine.load attrs %v, want Load's annotation and no cached", i, ev.Attrs)
			}
		}
		if got != want.spans {
			t.Errorf("request %d: %d engine.load spans, want %d", i, got, want.spans)
		}
	}
}
