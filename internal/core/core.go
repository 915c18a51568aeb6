// Package core ties the reproduction together: it compiles the benchmark
// suite, collects profiles and traces, runs the aligners, and implements
// one driver per table and figure of the paper (see DESIGN.md for the
// experiment index). cmd/experiments and the repository-level benchmarks
// are thin wrappers over this package.
package core

import (
	"context"
	"fmt"
	"sync"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/pipe"
	"branchalign/internal/tsp"
)

// Cost re-exports the cycle type.
type Cost = machine.Cost

// Suite is a lazily-evaluated experiment context: modules, profiles and
// traces are computed once and shared across experiments.
type Suite struct {
	// Model is the penalty model (default Alpha 21164).
	Model machine.Model
	// Cache is the I-cache simulated for execution times.
	Cache pipe.CacheConfig
	// Seed drives every randomized component deterministically.
	Seed int64
	// Algorithms names the aligners every experiment compares, resolved
	// through the align registry. Nil keeps the paper's trio — original,
	// greedy (Pettis-Hansen) and tsp — so the pinned experiment goldens
	// are unaffected by registry growth.
	Algorithms []string
	// HKOpts configures the Held-Karp bound.
	HKOpts tsp.HeldKarpOptions
	// MaxSteps bounds each profiling/tracing interpreter run.
	MaxSteps int64
	// Obs, when non-nil, is the parent span the suite's pipeline stages
	// report telemetry under (profiling and trace-recording runs, the
	// TSP aligner's per-function solves, Held-Karp bounds, simulations).
	// cmd/experiments -events wires this to an NDJSON trace.
	Obs *obs.Span

	// mu guards the lazy caches below. Suites are safe for concurrent
	// use: parallel LayoutsOf/ProfileOf calls on the same key compute
	// once and share the cached value (computation happens under the
	// lock, so concurrent callers serialize rather than duplicate work).
	mu         sync.Mutex
	benchmarks []*bench.Benchmark
	mods       map[string]*ir.Module
	profiles   map[string]*profileRun
	traces     map[string]*pipe.Trace
	layouts    map[string]map[string]*layout.Layout
	bounds     map[string]Cost // per data set, from the tsp layout's run
}

type profileRun struct {
	prof *interp.Profile
	res  interp.Result
}

// NewSuite builds a Suite over the full benchmark set with the paper's
// machine model.
func NewSuite(seed int64) *Suite {
	return &Suite{
		Model: machine.Alpha21164(),
		Cache: pipe.DefaultCache(),
		Seed:  seed,
		// The paper's Held-Karp bounds average within 0.3% of the optimum;
		// reaching comparable tightness takes a few thousand subgradient
		// iterations on the larger (switch-heavy) instances.
		HKOpts:     tsp.HeldKarpOptions{Iterations: 3000},
		MaxSteps:   1 << 31,
		benchmarks: bench.All(),
		mods:       map[string]*ir.Module{},
		profiles:   map[string]*profileRun{},
		traces:     map[string]*pipe.Trace{},
		layouts:    map[string]map[string]*layout.Layout{},
		bounds:     map[string]Cost{},
	}
}

// WithBenchmarks restricts the suite (used by fast tests).
func (s *Suite) WithBenchmarks(names ...string) (*Suite, error) {
	var picked []*bench.Benchmark
	for _, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			return nil, err
		}
		picked = append(picked, b)
	}
	s.benchmarks = picked
	return s, nil
}

// Module compiles (and caches) a benchmark.
func (s *Suite) Module(b *bench.Benchmark) (*ir.Module, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.moduleLocked(b)
}

func (s *Suite) moduleLocked(b *bench.Benchmark) (*ir.Module, error) {
	if m, ok := s.mods[b.Name]; ok {
		return m, nil
	}
	m, err := b.Compile()
	if err != nil {
		return nil, err
	}
	s.mods[b.Name] = m
	return m, nil
}

func dsKey(b *bench.Benchmark, ds *bench.DataSet) string {
	return b.Name + "." + ds.Name
}

// ProfileOf runs (and caches) the profiling execution of b on ds — the
// "instrumented program" run of the paper's methodology.
func (s *Suite) ProfileOf(b *bench.Benchmark, ds *bench.DataSet) (*interp.Profile, interp.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.profileLocked(b, ds)
}

func (s *Suite) profileLocked(b *bench.Benchmark, ds *bench.DataSet) (*interp.Profile, interp.Result, error) {
	key := dsKey(b, ds)
	if pr, ok := s.profiles[key]; ok {
		return pr.prof, pr.res, nil
	}
	mod, err := s.moduleLocked(b)
	if err != nil {
		return nil, interp.Result{}, err
	}
	sp := s.Obs.Child("profile", obs.String("target", key))
	prof := interp.NewProfile(mod)
	res, err := interp.Run(mod, ds.Make(), interp.Options{Profile: prof, MaxSteps: s.MaxSteps})
	if err != nil {
		sp.End(obs.Bool("failed", true))
		return nil, res, fmt.Errorf("core: profiling %s: %w", key, err)
	}
	sp.End(obs.Int("steps", res.Steps), obs.Int("dyn_branches", res.DynBranches()))
	s.profiles[key] = &profileRun{prof: prof, res: res}
	return prof, res, nil
}

// TraceOf records (and caches) the dynamic edge trace of b on ds, shared
// by all layout simulations of that run.
func (s *Suite) TraceOf(b *bench.Benchmark, ds *bench.DataSet) (*pipe.Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := dsKey(b, ds)
	if tr, ok := s.traces[key]; ok {
		return tr, nil
	}
	mod, err := s.moduleLocked(b)
	if err != nil {
		return nil, err
	}
	tr, _, err := pipe.Record(mod, ds.Make(), interp.Options{MaxSteps: s.MaxSteps})
	if err != nil {
		return nil, fmt.Errorf("core: tracing %s: %w", key, err)
	}
	s.traces[key] = tr
	return tr, nil
}

// Aligners returns the aligners every experiment compares — the
// Algorithms list resolved through the registry (default: original,
// greedy, tsp, in that order). An unknown name panics: the list is
// experiment configuration, not user input.
func (s *Suite) Aligners() []align.Aligner {
	names := s.Algorithms
	if names == nil {
		names = []string{"original", "greedy", "tsp"}
	}
	out := make([]align.Aligner, 0, len(names))
	for _, name := range names {
		a, err := align.ByName(name)
		if err != nil {
			panic("core: " + err.Error())
		}
		out = append(out, a)
	}
	return out
}

// LayoutsOf returns (and caches) the layouts of every aligner in
// Aligners trained on the given data set's profile. Cancelled contexts
// produce truncated (but valid) TSP layouts; those are still cached,
// matching the anytime contract — callers that need full-quality
// layouts should pass an uncancelled ctx.
func (s *Suite) LayoutsOf(ctx context.Context, b *bench.Benchmark, ds *bench.DataSet) (map[string]*layout.Layout, error) {
	out := map[string]*layout.Layout{}
	for _, a := range s.Aligners() {
		l, err := s.LayoutFor(ctx, b, ds, a.Name())
		if err != nil {
			return nil, err
		}
		out[a.Name()] = l
	}
	return out, nil
}

// LayoutFor returns (and caches) one named aligner's layout trained on
// the given data set's profile. It shares the per-dataset cache with
// LayoutsOf, so asking for "tsp" after LayoutsOf (or vice versa) never
// re-solves. The tsp run also bounds every function on the matrices it
// solved, and caches the sum for BoundOf.
func (s *Suite) LayoutFor(ctx context.Context, b *bench.Benchmark, ds *bench.DataSet, name string) (*layout.Layout, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := dsKey(b, ds)
	if l, ok := s.layouts[key][name]; ok {
		return l, nil
	}
	mod, err := s.moduleLocked(b)
	if err != nil {
		return nil, err
	}
	prof, _, err := s.profileLocked(b, ds)
	if err != nil {
		return nil, err
	}
	a, err := align.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	o := align.RunOptions{Seed: s.Seed, Obs: s.Obs}
	if name == "tsp" {
		o.Bound = &s.HKOpts
	}
	res := align.Run(ctx, a, mod, prof, s.Model, o)
	if s.layouts[key] == nil {
		s.layouts[key] = map[string]*layout.Layout{}
	}
	s.layouts[key][name] = res.Layout
	if name == "tsp" {
		s.bounds[key] = res.Bound
	}
	return res.Layout, nil
}

// BoundOf returns the summed Held-Karp lower bound on the given data
// set's profile, from the same run as the cached tsp layout.
func (s *Suite) BoundOf(b *bench.Benchmark, ds *bench.DataSet) (Cost, error) {
	if _, err := s.LayoutFor(context.Background(), b, ds, "tsp"); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bounds[dsKey(b, ds)], nil
}

// SimulateCycles replays the recorded trace of (b, ds) under a layout
// and returns the simulated execution time in cycles.
func (s *Suite) SimulateCycles(b *bench.Benchmark, ds *bench.DataSet, mod *ir.Module, l *layout.Layout) (pipe.Stats, error) {
	tr, err := s.TraceOf(b, ds)
	if err != nil {
		return pipe.Stats{}, err
	}
	cfg := pipe.Config{Model: s.Model, Cache: s.Cache, Obs: s.Obs}
	return pipe.Replay(tr, mod, l, cfg), nil
}
