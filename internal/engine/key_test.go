package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
		"max kicks":      func(r *Request) { r.Budget.MaxKicks = 5 },
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
		"deadline":        func(r *Request) { r.Budget.Deadline = time.Now().Add(time.Hour) },
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
}

// TestEngineLoadSpan pins the engine.load span: it wraps Load on a miss,
// under the request's span, and a hit records none.
func TestEngineLoadSpan(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	for i, want := range []int{1, 0} {
		sink := &obs.MemorySink{}
		tr := obs.New(sink)
		root := tr.Start("root")
		load := func(sp *obs.Span) (*ir.Module, *interp.Profile, error) {
			sp.SetAttrs(obs.String("input", "label"))
			return mod, prof, nil
		}
		req := Request{Inputs: branchyInputs, Load: load, Model: machine.Alpha21164(), Obs: root}
		if _, err := e.Align(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		root.End()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, ev := range sink.Events() {
			if ev.Type == "span" && ev.Name == "engine.load" {
				got++
				if ev.Str("input") != "label" {
					t.Errorf("engine.load attrs %v: Load's annotation missing", ev.Attrs)
				}
			}
		}
		if got != want {
			t.Errorf("request %d: %d engine.load spans, want %d", i, got, want)
		}
	}
}
