package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
)

// TestEngineLoadCacheIsFunctionOfRequest pins that the load cache does
// not change what a request gets: in both profile modes, a bounded
// request served from a retained load equals, field for field, the same
// request on a fresh engine that had to call Load.
func TestEngineLoadCacheIsFunctionOfRequest(t *testing.T) {
	mod, prof := branchy(t)
	ctx := context.Background()
	for _, static := range []bool{false, true} {
		t.Run(fmt.Sprintf("static=%v", static), func(t *testing.T) {
			load := loaded(mod, prof)
			if static {
				load = loaded(mod, nil)
			}
			req := Request{
				Inputs: branchyInputs, Load: load, Model: machine.Alpha21164(), Seed: 1,
				StaticProfile: static, Bound: true, HKIterations: 300,
			}
			cold, err := New(Options{Workers: 2}).Align(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			e := New(Options{Workers: 2})
			for seed := int64(2); seed <= 3; seed++ {
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
			if st := e.Stats(); st.LoadHits != 1 || after.CacheHit {
				t.Fatalf("stats %+v, hit=%v: want the request served by a load-cache hit", st, after.CacheHit)
			}
			if !reflect.DeepEqual(cold, after) {
				t.Errorf("result from a retained load differs from a fresh engine's:\n%+v\n%+v", after, cold)
			}
		})
	}
}

// chain returns a one-function module of n empty blocks, each ending in
// a jump to the next and the last in a return: n instructions of budget.
func chain(n int) *ir.Module {
	f := &ir.Func{Name: "chain"}
	for i := 0; i < n; i++ {
		b := &ir.Block{ID: i, Term: ir.Terminator{Kind: ir.TermBr, Succs: []int{i + 1}}}
		if i == n-1 {
			b.Term = ir.Terminator{Kind: ir.TermRet}
		}
		f.Blocks = append(f.Blocks, b)
	}
	return &ir.Module{Funcs: []*ir.Func{f}}
}

// TestLoadCacheBudget pins the instruction budget: after every add the
// retained modules sum to at most the budget, with the least recently
// used demoted first, and a module over the whole budget is never
// retained however often it is seen.
func TestLoadCacheBudget(t *testing.T) {
	const budget = 10
	c := newLoadCache(64, budget)
	check := func(step string) {
		t.Helper()
		sum, held := 0, 0
		for el := c.entries.order.Front(); el != nil; el = el.Next() {
			if le := el.Value.(*lruEntry[*loadEntry]).val; le.mod != nil {
				sum += moduleInsts(le.mod)
				held++
			}
		}
		if sum != c.insts || held != c.held || c.insts > budget {
			t.Fatalf("%s: retained %d instructions in %d modules, tallied %d in %d, budget %d",
				step, sum, held, c.insts, c.held, budget)
		}
	}
	key := func(i int) Key { return Request{Inputs: []byte{byte(i)}}.loadKey() }
	mods := []*ir.Module{chain(4), chain(4), chain(4), chain(budget + 1)}
	for i, m := range mods {
		for sighting := 0; sighting < 3; sighting++ {
			if _, _, ok := c.get(key(i)); !ok {
				c.add(key(i), m, &interp.Profile{})
			}
			check(fmt.Sprintf("module %d sighting %d", i, sighting))
		}
	}
	for i, want := range []bool{false, true, true, false} {
		if _, _, ok := c.get(key(i)); ok != want {
			t.Errorf("module %d retained=%v, want %v", i, ok, want)
		}
	}

	// Through the engine: a module one instruction over the budget is
	// loaded afresh on every miss.
	mod, prof := branchy(t)
	load, calls := countingLoad(mod, prof, nil)
	e := New(Options{})
	e.loads = newLoadCache(64, moduleInsts(mod)-1)
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := e.Align(context.Background(), Request{Inputs: branchyInputs, Load: load, Model: machine.Alpha21164(), Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if n, held := calls.Load(), e.loads.retained(); n != 3 || held != 0 {
		t.Fatalf("oversize module: %d Loads for 3 seeds, %d retained; want 3 and 0", n, held)
	}
}

// TestEngineLoadCacheConcurrentSeeds solves one retained load under many
// seeds at once, in both profile modes. Under the race detector a solve
// that wrote the shared module or profile is a reported race; without
// it, the module and profile must still equal a fresh compile's.
func TestEngineLoadCacheConcurrentSeeds(t *testing.T) {
	mod, prof := branchy(t)
	wantMod, wantProf := branchy(t)
	ctx := context.Background()
	measured, mCalls := countingLoad(mod, prof, nil)
	static, sCalls := countingLoad(mod, nil, nil)
	request := func(seed int64, st bool) Request {
		req := Request{Inputs: branchyInputs, Load: measured, Model: machine.Alpha21164(), Seed: seed, StaticProfile: st, Bound: seed%3 == 0, HKIterations: 50}
		if st {
			req.Load = static
		}
		return req
	}
	e := New(Options{Workers: 4})
	for _, st := range []bool{false, true} {
		for seed := int64(100); seed <= 101; seed++ { // retain both loads
			if _, err := e.Align(ctx, request(seed, st)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const N = 16
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Align(ctx, request(int64(i/2), i%2 == 1))
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
	if m, s, hits := mCalls.Load(), sCalls.Load(), e.Stats().LoadHits; m != 2 || s != 2 || hits != N {
		t.Fatalf("%d measured and %d static Loads, %d load hits; want 2, 2 and %d", m, s, hits, N)
	}
	if !reflect.DeepEqual(mod, wantMod) || !reflect.DeepEqual(prof, wantProf) {
		t.Fatal("a solve wrote the shared module or profile")
	}
}
