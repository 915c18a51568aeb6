package main

import (
	"fmt"

	"branchalign/internal/engine"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
)

// checker verifies served layouts against the client's own copy of each
// program and profile. balignd's default model is the paper's Alpha
// 21164, which the benchmark never overrides.
type checker struct {
	model    machine.Model
	identity map[*program]int64           // compiler-order penalty per program
	first    map[string][]engine.FuncStat // first response served per request
}

func newChecker() *checker {
	return &checker{
		model:    machine.Alpha21164(),
		identity: map[*program]int64{},
		first:    map[string][]engine.FuncStat{},
	}
}

// check returns nil when the response to s is a correct layout:
//   - the served orders, finalized client-side, pass Layout.Validate;
//   - the served penalty equals layout.ModulePenalty of that layout;
//   - original_penalty equals the penalty of layout.Identity;
//   - every per-function bound is at most its cost;
//   - the funcs equal the first response served for the same request.
//
// Bounds are left out of the last comparison: a re-solve after an
// eviction warm-starts its Held-Karp ascent from the engine's history and
// may legitimately report a tighter bound.
func (c *checker) check(s *sample) error {
	r, p := s.resp, s.it.prog
	if len(r.Funcs) != len(p.mod.Funcs) {
		return fmt.Errorf("%s: %d funcs served for %d functions", p.name, len(r.Funcs), len(p.mod.Funcs))
	}
	l := &layout.Layout{}
	var bound int64
	for fi, f := range p.mod.Funcs {
		fs := r.Funcs[fi]
		if fs.Name != f.Name {
			return fmt.Errorf("%s: func %d is %q, want %q", p.name, fi, fs.Name, f.Name)
		}
		if fs.Bound > fs.Cost {
			return fmt.Errorf("%s: func %s bound %d exceeds cost %d", p.name, f.Name, fs.Bound, fs.Cost)
		}
		bound += fs.Bound
		l.Funcs = append(l.Funcs, layout.Finalize(f, p.prof.Funcs[fi], fs.Order, c.model))
	}
	if bound != r.Bound {
		return fmt.Errorf("%s: served bound %d, per-function bounds sum to %d", p.name, r.Bound, bound)
	}
	if err := l.Validate(p.mod); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if got := int64(layout.ModulePenalty(p.mod, l, p.prof, c.model)); got != r.Penalty {
		return fmt.Errorf("%s: served penalty %d, layout's penalty is %d", p.name, r.Penalty, got)
	}
	orig, ok := c.identity[p]
	if !ok {
		orig = int64(layout.ModulePenalty(p.mod, layout.Identity(p.mod, p.prof, c.model), p.prof, c.model))
		c.identity[p] = orig
	}
	if orig != r.OriginalPenalty {
		return fmt.Errorf("%s: served original_penalty %d, compiler order's penalty is %d", p.name, r.OriginalPenalty, orig)
	}
	key := string(s.it.body)
	want, seen := c.first[key]
	if !seen {
		c.first[key] = r.Funcs
		return nil
	}
	for fi := range want {
		if !sameLayout(want[fi], r.Funcs[fi]) {
			return fmt.Errorf("%s: func %s differs from the first response to the same request (cache_hit=%v coalesced=%v)",
				p.name, want[fi].Name, r.CacheHit, r.Coalesced)
		}
	}
	return nil
}

func sameLayout(a, b engine.FuncStat) bool {
	if a.Name != b.Name || a.Cities != b.Cities || a.Cost != b.Cost || a.Exact != b.Exact ||
		a.Truncated != b.Truncated || a.Kicks != b.Kicks || len(a.Order) != len(b.Order) {
		return false
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			return false
		}
	}
	return true
}
