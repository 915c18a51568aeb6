package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"branchalign/internal/align"
	"branchalign/internal/check"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/testutil"
	"branchalign/internal/tsp"
)

func branchy(t *testing.T) (*ir.Module, *interp.Profile) {
	t.Helper()
	mod, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource, testutil.BranchyInput(400, 7))
	if err != nil {
		t.Fatal(err)
	}
	return mod, prof
}

// branchyInputs is the label engine tests key the branchy program on;
// loaded hands its module and profile back as the request's Load.
var branchyInputs = []byte("branchy")

func loaded(mod *ir.Module, prof *interp.Profile) func(*obs.Span) (*ir.Module, *interp.Profile, error) {
	return func(*obs.Span) (*ir.Module, *interp.Profile, error) { return mod, prof, nil }
}

func sameLayout(t *testing.T, a, b *layout.Layout) {
	t.Helper()
	if len(a.Funcs) != len(b.Funcs) {
		t.Fatalf("layouts have %d vs %d functions", len(a.Funcs), len(b.Funcs))
	}
	for fi := range a.Funcs {
		ao, bo := a.Funcs[fi].Order, b.Funcs[fi].Order
		if len(ao) != len(bo) {
			t.Fatalf("func %d: order lengths %d vs %d", fi, len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("func %d: orders diverge at %d: %v vs %v", fi, i, ao, bo)
			}
		}
	}
}

// TestEngineMatchesAligner pins that the engine is a pure front end:
// the layout it serves is bit-identical to driving align.TSP directly
// with the same seed.
func TestEngineMatchesAligner(t *testing.T) {
	mod, prof := branchy(t)
	model := machine.Alpha21164()

	direct := align.Run(context.Background(), align.NewTSP(3), mod, prof, model, align.RunOptions{}).Layout

	e := New(Options{})
	res, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: model, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("unbudgeted request marked truncated")
	}
	sameLayout(t, direct, res.Layout)
	if want := layout.ModulePenalty(mod, direct, prof, model); res.Penalty != want {
		t.Fatalf("penalty %d, want %d", res.Penalty, want)
	}
}

func TestEngineCacheHit(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	req := Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: machine.Alpha21164(), Seed: 1}

	first, err := e.Align(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	second, err := e.Align(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical second request missed the cache")
	}
	sameLayout(t, first.Layout, second.Layout)

	// A different seed is a different computation.
	req.Seed = 2
	third, err := e.Align(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("different seed served from cache")
	}
	st := e.Stats()
	if st.Requests != 3 || st.CacheHits != 1 || st.Solved != 2 {
		t.Fatalf("stats = %+v, want 3 requests / 1 hit / 2 solved", st)
	}
}

// TestEngineDeadlineExcludedFromKey pins that two requests differing
// only in wall-clock deadline share one cache entry.
func TestEngineDeadlineExcludedFromKey(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	req := Request{Inputs: branchyInputs, Load: loaded(mod, prof), Model: machine.Alpha21164(), Seed: 1}
	if _, err := e.Align(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	req.Budget = tsp.Budget{Deadline: time.Now().Add(time.Hour)}
	res, err := e.Align(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("deadline-only difference missed the cache")
	}
}

func TestEngineTruncatedNotCached(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	req := Request{
		Inputs: branchyInputs, Load: loaded(mod, prof), Model: machine.Alpha21164(), Seed: 1,
		Budget: tsp.Budget{Deadline: time.Now().Add(-time.Second)},
	}
	res, err := e.Align(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expired deadline did not truncate")
	}
	if err := res.Layout.Validate(mod); err != nil {
		t.Fatalf("truncated layout invalid: %v", err)
	}
	// Re-issuing with a live deadline must re-solve (truncated results
	// are never cached) and come back untruncated.
	req.Budget = tsp.Budget{}
	full, err := e.Align(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if full.CacheHit || full.Truncated {
		t.Fatalf("retry after truncation: hit=%v truncated=%v, want fresh full solve",
			full.CacheHit, full.Truncated)
	}
	if full.Penalty > res.Penalty {
		t.Fatalf("full solve penalty %d worse than truncated %d", full.Penalty, res.Penalty)
	}
}

func TestEngineBounds(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	res, err := e.Align(context.Background(), Request{
		Inputs: branchyInputs, Load: loaded(mod, prof), Model: machine.Alpha21164(), Seed: 1,
		Bound: true, HKIterations: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound <= 0 || res.Bound > res.Penalty {
		t.Fatalf("bound %d outside (0, penalty=%d]", res.Bound, res.Penalty)
	}
	for _, fs := range res.Funcs {
		if fs.Bound > fs.Cost {
			t.Fatalf("func %s: bound %d exceeds tour cost %d", fs.Name, fs.Bound, fs.Cost)
		}
	}
}

// TestEngineBoundIsFunctionOfRequest pins that a bounded response
// depends on its request alone: the same request gets an identical
// Result — layout, penalties, bound and every per-function FuncStat —
// from a cold engine and from one that first served the same Inputs
// under seeds 2–5. Both satisfy AP ≤ HK ≤ tour on every function.
func TestEngineBoundIsFunctionOfRequest(t *testing.T) {
	mod, prof := branchy(t)
	model := machine.Alpha21164()
	ctx := context.Background()
	req := Request{
		Inputs: branchyInputs, Load: loaded(mod, prof), Model: model, Seed: 1,
		Bound: true, HKIterations: 300,
	}

	cold, err := New(Options{Workers: 2}).Align(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2})
	for seed := int64(2); seed <= 5; seed++ {
		r := req
		r.Seed = seed
		if _, err := e.Align(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	after, err := e.Align(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit || after.Coalesced || after.Truncated {
		t.Fatalf("hit=%v coalesced=%v truncated=%v, want a fresh full solve",
			after.CacheHit, after.Coalesced, after.Truncated)
	}
	if !reflect.DeepEqual(cold, after) {
		t.Errorf("bound %d after other seeds, %d from a cold engine", after.Bound, cold.Bound)
		for fi := range cold.Funcs {
			if !reflect.DeepEqual(cold.Funcs[fi], after.Funcs[fi]) {
				t.Errorf("func %d: %+v after other seeds, %+v cold", fi, after.Funcs[fi], cold.Funcs[fi])
			}
		}
	}
	for _, res := range []*Result{cold, after} {
		for fi, fs := range res.Funcs {
			mat := align.BuildSparseMatrix(mod.Funcs[fi], prof.Funcs[fi], model, nil)
			ap := tsp.AssignmentBound(mat)
			tour := tsp.CycleCost(mat, tsp.Tour(fs.Order))
			if r := check.BoundChain(fs.Name, ap, layout.Cost(fs.Bound), tour); len(r.Findings) != 0 {
				t.Errorf("AP ≤ HK ≤ tour broken:\n%s", r)
			}
		}
	}
}

// TestEngineConcurrentIdenticalCoalesce exercises single-flight: many
// identical concurrent requests produce identical layouts, and at most
// a few actual solves (one leader plus stragglers that arrived after it
// finished and hit the cache).
func TestEngineConcurrentIdenticalCoalesce(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{Workers: 2})
	const N = 16
	results := make([]*Result, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Align(context.Background(), Request{
				Inputs: branchyInputs, Load: loaded(mod, prof), Model: machine.Alpha21164(), Seed: 5,
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < N; i++ {
		if results[i] == nil || results[0] == nil {
			t.Fatal("missing result")
		}
		sameLayout(t, results[0].Layout, results[i].Layout)
	}
	st := e.Stats()
	if st.Requests != N {
		t.Fatalf("requests = %d, want %d", st.Requests, N)
	}
	if st.Coalesced+st.CacheHits == 0 {
		t.Fatal("no request was coalesced or cache-served")
	}
	if st.Solved+st.Coalesced+st.CacheHits != N {
		t.Fatalf("stats don't account for all requests: %+v", st)
	}
}

// TestEngineConcurrentMixed hammers the engine with distinct seeds and
// mixed budgets under the race detector.
func TestEngineConcurrentMixed(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{Workers: 4, CacheEntries: 8})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{
				Inputs: branchyInputs, Load: loaded(mod, prof), Model: machine.Alpha21164(),
				Seed: int64(i % 6), Bound: i%3 == 0, HKIterations: 100,
			}
			if i%4 == 0 {
				req.Budget = tsp.Budget{MaxKicks: 3}
			}
			res, err := e.Align(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			if err := res.Layout.Validate(mod); err != nil {
				t.Errorf("request %d: invalid layout: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestEngineRejectsMalformedRequest(t *testing.T) {
	mod, prof := branchy(t)
	e := New(Options{})
	if _, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(nil, prof)}); err == nil {
		t.Fatal("nil module accepted")
	}
	if _, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, nil)}); err == nil {
		t.Fatal("nil profile accepted")
	}
	if _, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: loaded(mod, &interp.Profile{})}); err == nil {
		t.Fatal("mismatched profile accepted")
	}
}

// TestEngineLeaderPanicSettles pins that a leader whose Load panics
// settles its in-flight entry: the identical request waiting on it gets
// ErrInternal instead of hanging, the error is counted and not cached,
// and the in-flight gauge returns to zero.
func TestEngineLeaderPanicSettles(t *testing.T) {
	e := New(Options{Workers: 2})
	var loads atomic.Int64
	req := Request{
		Inputs: []byte("panics"), Model: machine.Alpha21164(), Seed: 1,
		Load: func(*obs.Span) (*ir.Module, *interp.Profile, error) {
			loads.Add(1)
			// Hold the lead until the second request has arrived, so it
			// finds this call in flight and waits on it.
			for e.Stats().Requests < 2 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			panic("load exploded")
		},
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, errs[i] = e.Align(ctx, req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "load exploded") {
			t.Errorf("request %d: err = %v, want ErrInternal carrying the panic value", i, err)
		}
	}
	st := e.Stats()
	if st.InFlight != 0 {
		t.Errorf("in_flight = %d after the leader panicked, want 0", st.InFlight)
	}
	// Normally the follower coalesces onto the failed leader; if it was
	// scheduled late it leads (and fails) on its own. Either way every
	// request is a failed load or a coalesced one.
	if st.Errors != loads.Load() || st.Errors+st.Coalesced != 2 {
		t.Errorf("errors %d, coalesced %d, loads %d: want errors == loads and errors+coalesced == 2",
			st.Errors, st.Coalesced, loads.Load())
	}
	// Not cached: the same request loads again.
	before := loads.Load()
	if _, err := e.Align(context.Background(), req); !errors.Is(err, ErrInternal) {
		t.Fatalf("retry: err = %v, want ErrInternal", err)
	}
	if loads.Load() != before+1 {
		t.Error("a panicked solve was served from the cache")
	}
}

// TestEngineFanOutPanicIsInternal pins the other panic path: a profile
// whose shape does not match its module panics inside a per-function
// task, which work.Pool re-raises in the leader.
func TestEngineFanOutPanicIsInternal(t *testing.T) {
	mod, prof := branchy(t)
	bad := &interp.Profile{Funcs: make([]*interp.FuncProfile, len(prof.Funcs))}
	for i := range bad.Funcs {
		bad.Funcs[i] = &interp.FuncProfile{}
	}
	e := New(Options{Workers: 2})
	_, err := e.Align(context.Background(), Request{Inputs: []byte("bad shape"), Load: loaded(mod, bad), Model: machine.Alpha21164()})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if st := e.Stats(); st.InFlight != 0 || st.Errors != 1 {
		t.Fatalf("stats after a fan-out panic: %+v", st)
	}
}
