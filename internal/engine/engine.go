// Package engine is the context-aware alignment engine: a concurrent,
// caching front end over the align/tsp pipeline. It exists so that
// request-driven callers (the balignd server, long-lived tools) get
//
//   - a bounded worker pool shared across requests: no matter how many
//     alignments run at once, at most Options.Workers per-function
//     solves execute concurrently;
//   - per-request deterministic randomness: each request's solver seed
//     derives only from the request (seed + function index), never from
//     shared mutable state, so identical requests give identical
//     layouts regardless of interleaving;
//   - a keyed result cache with single-flight deduplication: requests
//     are keyed on their own inputs, identical in-flight requests are
//     coalesced onto one computation, and completed untruncated results
//     are reused. Compiling and profiling is the request's lazy Load
//     step, run only by the leader of a miss, so a cache hit or a
//     coalesced duplicate never compiles or profiles anything.
//     Truncated (deadline- or budget-cut) results are never cached and
//     never shared with concurrent duplicates, because a duplicate may
//     carry a more generous budget and deserves the full-quality answer;
//   - a load cache under the result cache: a miss whose Inputs the
//     engine has already loaded twice in the same profile mode reuses
//     that module and profile instead of calling Load again, so laying
//     one program out under many seeds or algorithms does not profile
//     it once per layout.
//
// Cancellation follows the anytime contract of the underlying solvers:
// a cancelled context truncates each in-flight per-function solve at
// its next kick (or subgradient-iterate) boundary and the engine
// finalizes best-so-far orders into a valid — merely weaker — layout,
// flagged Result.Truncated.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"branchalign/internal/align"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/staticprof"
	"branchalign/internal/stats"
	"branchalign/internal/tsp"
	"branchalign/internal/work"
)

// Request validation errors. Each malformed-request shape gets its own
// sentinel so callers (balignd's structured error bodies, tests) can
// tell the user precisely what to fix instead of parsing a blanket
// message.
var (
	// ErrNoModule: the request has no Load, or its Load returned no
	// module.
	ErrNoModule = errors.New("engine: request needs a Load that returns a module")
	// ErrNoProfile: Load returned no profile and the request did not opt
	// into static estimation (set StaticProfile to run profile-less).
	ErrNoProfile = errors.New("engine: Load returned no profile (set StaticProfile to estimate one)")
	// ErrProfileConflict: Load returned a measured profile for a request
	// that asked for static estimation; the engine refuses to guess which
	// one the caller meant.
	ErrProfileConflict = errors.New("engine: Load returned a profile for a StaticProfile request")
	// ErrUnknownAlgorithm: Request.Algorithm names no registered aligner.
	// The returned error wraps this sentinel and lists the known names.
	ErrUnknownAlgorithm = errors.New("engine: unknown algorithm")
	// ErrInternal: the solve panicked, in Load or in the per-function
	// fan-out. The returned error wraps this sentinel and carries the
	// panic value. It is a fault of the engine or of Load, not of the
	// request; like any failure it is shared with coalesced requests and
	// never cached.
	ErrInternal = errors.New("engine: internal error")
	// ErrEstimateBudget: a StaticProfile request's estimated counts for
	// one function sum above interp.MaxFuncCount, so the DTSP costs
	// built from them could overflow. The estimate cannot be clamped
	// without breaking its flow conservation, so the request fails. The
	// returned error wraps this sentinel and names the function.
	ErrEstimateBudget = errors.New("engine: estimated profile exceeds the count budget")
	// ErrFuncTooLarge: a function has more than MaxFuncBlocks blocks, so
	// its DTSP matrix's forbidden-edge cost could overflow. The returned
	// error wraps this sentinel and names the function.
	ErrFuncTooLarge = errors.New("engine: function has too many blocks")
)

// MaxFuncBlocks caps the blocks of one function. A DTSP cost c(i->j) is
// at most block i's outgoing count times the model's largest single
// penalty, and a function's counts sum to at most interp.MaxFuncCount,
// so Forbid() — one plus the sum of every positive cost — is at most
// (n-1) × MaxFuncCount × maxEventPenalty + 1 for n blocks. The cap is
// the largest n for which that stays inside int64: 43,691 blocks.
const MaxFuncBlocks = math.MaxInt64/(interp.MaxFuncCount*maxEventPenalty) + 1

// maxEventPenalty is the largest single penalty of the built-in machine
// models (DeepPipe's conditional mispredict, 12 cycles). A DTSP cost
// charges each execution one such penalty; a fully displaced branch
// takes the cheaper fixup, at most max(JumpCost, CondMispredict) each.
const maxEventPenalty = 12

// Options configures an Engine.
type Options struct {
	// Workers bounds the number of per-function solves running
	// concurrently across all requests. 0 means GOMAXPROCS. The same
	// pool feeds per-run solver parallelism (Parallelism), so the two
	// layers together never exceed this bound.
	Workers int
	// CacheEntries bounds the result cache (least-recently-used
	// eviction), and the keys of the load cache likewise. 0 means 64;
	// negative disables both.
	CacheEntries int
	// Parallelism is the default per-run solver parallelism applied to
	// requests that do not set their own: each per-function solve may
	// execute up to this many of its multi-start runs concurrently on
	// the engine's worker pool. 0 leaves runs sequential. Results are
	// bit-identical at every setting, so this is a latency knob only —
	// it is deliberately excluded from the result cache key.
	Parallelism int
	// Registry is the metrics registry the engine records into (cache
	// hits/misses/evictions, single-flight dedups, truncations, solve
	// latency, worker-pool gauges). Nil gets a private registry, so the
	// counters behind Stats() always exist; pass the process registry to
	// expose them on /metrics. Instrumentation never affects results.
	Registry *obs.Registry
}

// Request describes one alignment job. The engine keys it on Inputs and
// the fields below, and calls Load only when it has to solve.
type Request struct {
	// Inputs is a canonical encoding of everything Load reads. The engine
	// never interprets it: it hashes it, once, into the load key, from
	// which the cache and single-flight key derives, so requests with
	// equal Inputs (and equal mode, model, algorithm, seed, kick cap and
	// bound settings) are one computation. Borrowed for the duration of
	// the call.
	Inputs []byte
	// Load compiles the program and profiles it; it must be a pure
	// function of Inputs. The engine calls it only on a miss, from the
	// single-flight leader, and not even then when the load cache holds
	// this Inputs' load in the request's profile mode: cache hits,
	// coalesced duplicates and load-cache hits never compile or profile.
	// sp is the engine.load span (nil when untraced) for Load to
	// annotate. The returned module and profile may be kept and shared
	// read-only by later solves of requests with the same Inputs, so
	// neither may be mutated once returned. Load errors and panics reach
	// the caller and every coalesced duplicate, and are never cached.
	Load  func(sp *obs.Span) (*ir.Module, *interp.Profile, error)
	Model machine.Model

	// StaticProfile runs the request profile-less: Load returns only the
	// module, and the engine estimates a synthetic profile from CFG
	// structure (staticprof.Estimate) and aligns against it. Estimated
	// and measured requests can never collide in the result cache — the
	// profile mode is a structural component of the cache key.
	StaticProfile bool

	// Algorithm selects the aligner by registry name ("tsp", "exttsp",
	// "greedy", ...); empty means "tsp". Different algorithms are
	// different computations: the name is part of the cache key, so the
	// same module solved under two algorithms occupies two cache entries
	// and two concurrent requests with different algorithms never
	// coalesce onto one solve.
	Algorithm string

	// Seed is the solver seed (function i solves with Seed+i, as the
	// align.TSP aligner does). The zero seed is valid and deterministic.
	Seed int64

	// MaxKicks caps each per-function tsp solve (0 means unlimited); it
	// is part of the cache key. The wall-clock limit is the ctx passed to
	// Align, never part of the key: two requests that differ only in
	// deadline are the same computation.
	MaxKicks int64

	// Bound additionally computes the per-function Held-Karp lower
	// bounds, each a cold ascent of HKIterations subgradient iterates
	// (default 1000). The bounds are a function of the request alone:
	// an untruncated bounded request gets the same bounds from a fresh
	// engine as from one that has served any other requests.
	Bound        bool
	HKIterations int

	// Parallelism overrides the engine's default per-run solver
	// parallelism for this request when non-zero (negative selects
	// GOMAXPROCS). Solver results are bit-identical at every setting,
	// so Parallelism is not part of the cache key: a request at any
	// parallelism is served a cached result solved at any other.
	Parallelism int

	// Obs, when non-nil, is the parent span request telemetry is
	// recorded under. Not part of the cache key.
	Obs *obs.Span
}

// FuncStat is the per-function outcome of a request.
type FuncStat struct {
	Name      string `json:"name"`
	Cities    int    `json:"cities"`
	Order     []int  `json:"order"`
	Cost      int64  `json:"cost"`
	Exact     bool   `json:"exact"`
	Truncated bool   `json:"truncated,omitempty"`
	Kicks     int64  `json:"kicks"`
	// Bound and GapPct are present when the request asked for bounds.
	Bound  int64   `json:"bound,omitempty"`
	GapPct float64 `json:"gap_pct,omitempty"`
}

// Result is the outcome of one alignment request. Results may be shared
// between concurrent and future requests (cache hits return the same
// pointers), so callers must treat every field as immutable.
type Result struct {
	// Layout is the TSP-aligned module layout; always valid.
	Layout *layout.Layout
	// Penalty and OriginalPenalty are the control penalties of Layout
	// and of the compiler order on the training profile.
	Penalty         layout.Cost
	OriginalPenalty layout.Cost
	// Bound is the summed Held-Karp lower bound (0 unless requested).
	Bound layout.Cost
	// Truncated reports that at least one per-function solve (or bound)
	// was cut short by the context or budget.
	Truncated bool
	// CacheHit reports that the result was served from the cache;
	// Coalesced that it was shared with a concurrent identical request.
	CacheHit  bool
	Coalesced bool
	// ProfileEstimated reports that the profile driving this alignment
	// was synthesized by the static estimator rather than measured.
	ProfileEstimated bool
	Funcs            []FuncStat
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Requests  int64 `json:"requests"`
	CacheHits int64 `json:"cache_hits"`
	// LoadHits counts result-cache misses whose module and profile came
	// from the load cache, without a call to Load.
	LoadHits  int64 `json:"load_hits"`
	Coalesced int64 `json:"coalesced"`
	Solved    int64 `json:"solved"`
	Truncated int64 `json:"truncated"`
	Errors    int64 `json:"errors"`
	InFlight  int64 `json:"in_flight"`
	// Workers is the configured worker-pool size; InFlightRuns is the
	// number of tasks (per-function solves and nested solver runs)
	// executing on the pool right now.
	Workers      int   `json:"workers"`
	InFlightRuns int64 `json:"in_flight_runs"`
}

// Engine is safe for concurrent use by multiple goroutines.
type Engine struct {
	pool        *work.Pool
	parallelism int
	met         metrics
	loads       *loadCache

	mu       sync.Mutex
	cache    *lru[*Result]
	inflight map[Key]*call
}

// call is one in-flight computation other identical requests can wait
// on (hand-rolled single-flight; the repo carries no dependencies).
type call struct {
	done chan struct{}
	res  *Result
	err  error
}

// New returns an Engine with the given options.
func New(o Options) *Engine {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	entries := o.CacheEntries
	if entries == 0 {
		entries = 64
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		pool:        work.NewPool(o.Workers),
		parallelism: o.Parallelism,
		loads:       newLoadCache(entries, loadBudget),
		cache:       newLRU[*Result](entries),
		inflight:    map[Key]*call{},
	}
	e.cache.onEvict = func(*Result) { e.met.evictions.Inc() }
	e.met = newMetrics(reg, e.pool, func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(e.cache.len())
	}, func() float64 { return float64(e.loads.retained()) })
	return e
}

// Stats returns a snapshot of the engine counters. The values are read
// back from the same registry cells /metrics exposes, so the two
// surfaces agree by construction.
func (e *Engine) Stats() Stats {
	return Stats{
		Requests:     e.met.requests.Value(),
		CacheHits:    e.met.cacheHits.Value(),
		LoadHits:     e.met.loadHits.Value(),
		Coalesced:    e.met.coalesced.Value(),
		Solved:       e.met.solves.Value(),
		Truncated:    e.met.truncated.Value(),
		Errors:       e.met.errors.Value(),
		InFlight:     int64(e.met.inFlight.Value()),
		Workers:      e.pool.Cap(),
		InFlightRuns: e.pool.Active(),
	}
}

// Align runs one alignment request. It returns an error only for a
// malformed request, a failed Load or a panic (ErrInternal); cancellation
// and deadline expiry yield a valid truncated Result, never an error (the
// anytime contract).
func (e *Engine) Align(ctx context.Context, req Request) (*Result, error) {
	if req.Load == nil {
		return nil, ErrNoModule
	}
	if req.Algorithm == "" {
		req.Algorithm = "tsp"
	}
	a, err := align.ByName(req.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknownAlgorithm, req.Algorithm, align.Names())
	}
	if ctx == nil {
		ctx = context.Background()
	}
	lk := req.loadKey()
	key := req.key(lk)
	start := time.Now()
	e.met.requests.Inc()

	e.mu.Lock()
	for {
		if res, ok := e.cache.get(key); ok {
			e.mu.Unlock()
			e.met.cacheHits.Inc()
			e.met.observe(start, req.StaticProfile, "hit", req.Algorithm)
			hit := *res
			hit.CacheHit = true
			return &hit, nil
		}
		c, ok := e.inflight[key]
		if !ok {
			break
		}
		// Identical request already running: wait for it rather than
		// duplicating the work.
		e.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			// This request's deadline expired while waiting on a peer.
			// The anytime contract still applies: load and solve
			// directly with the expired context, which truncates at the
			// first budget check and yields a valid best-effort layout.
			e.met.cacheMisses.Inc()
			res, err := e.recoverSolve(ctx, a, req, lk)
			e.finishSolve(res, err)
			e.met.observe(start, req.StaticProfile, "miss", req.Algorithm)
			return res, err
		}
		if c.err != nil || !c.res.Truncated {
			// A failed leader's error is shared too: Load is a pure
			// function of Inputs, so this request would fail the same way.
			e.met.coalesced.Inc()
			e.met.observe(start, req.StaticProfile, "coalesced", req.Algorithm)
			if c.err != nil {
				return nil, c.err
			}
			shared := *c.res
			shared.Coalesced = true
			return &shared, nil
		}
		// The leader was truncated under its own deadline; this request
		// may have a longer one — retry from the top.
		e.mu.Lock()
	}
	c := &call{done: make(chan struct{})}
	e.inflight[key] = c
	e.mu.Unlock()
	e.met.cacheMisses.Inc()
	e.met.inFlight.Add(1)

	res, err := e.recoverSolve(ctx, a, req, lk)

	e.met.inFlight.Add(-1)
	e.finishSolve(res, err)
	e.mu.Lock()
	delete(e.inflight, key)
	if err == nil && !res.Truncated {
		e.cache.put(key, res)
	}
	e.mu.Unlock()
	e.met.observe(start, req.StaticProfile, "miss", req.Algorithm)
	c.res, c.err = res, err
	close(c.done)
	return res, err
}

// recoverSolve is solve with a panic turned into an ErrInternal error:
// one raised by Load, or by a per-function task and re-raised here by
// work.Pool. A leader that unwound instead would leave its in-flight
// entry unsettled, and every identical request would wait on it.
func (e *Engine) recoverSolve(ctx context.Context, a align.Aligner, req Request, lk Key) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: panic: %v", ErrInternal, p)
		}
	}()
	return e.solve(ctx, a, req, lk)
}

// finishSolve records one completed solve's outcome counters.
func (e *Engine) finishSolve(res *Result, err error) {
	if err != nil {
		e.met.errors.Inc()
		return
	}
	e.met.solves.Inc()
	if res.Truncated {
		e.met.truncated.Inc()
	}
}

// load returns the request's module and profile under an engine.load
// span: the load cache's copy for load key lk when it holds one (the
// span then says cached=true), a checked fresh load otherwise, which the
// load cache then sees.
func (e *Engine) load(req *Request, lk Key) (*ir.Module, *interp.Profile, error) {
	sp := req.Obs.Child("engine.load")
	defer sp.End()
	if mod, prof, ok := e.loads.get(lk); ok {
		e.met.loadHits.Inc()
		sp.SetAttrs(obs.Bool("cached", true))
		return mod, prof, nil
	}
	mod, prof, err := checkedLoad(req, sp)
	if err == nil {
		e.loads.add(lk, mod, prof)
	}
	return mod, prof, err
}

// checkedLoad runs the request's Load and checks what it returned. A
// StaticProfile request's profile is estimated here, inside the
// engine.load span sp, so solve aligns against one profile source
// either way.
func checkedLoad(req *Request, sp *obs.Span) (*ir.Module, *interp.Profile, error) {
	mod, prof, err := req.Load(sp)
	switch {
	case err != nil:
		return nil, nil, err
	case mod == nil:
		return nil, nil, ErrNoModule
	}
	for _, f := range mod.Funcs {
		if len(f.Blocks) > MaxFuncBlocks {
			return nil, nil, fmt.Errorf("%w: %s has %d, at most %d allowed", ErrFuncTooLarge, f.Name, len(f.Blocks), MaxFuncBlocks)
		}
	}
	switch {
	case req.StaticProfile && prof != nil:
		return nil, nil, ErrProfileConflict
	case req.StaticProfile:
		// The estimate is a pure function of the module, so the key's
		// profile-mode tag plus Inputs fully determine it.
		prof, _ = staticprof.Estimate(mod)
		if err := prof.CheckShape(mod); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrEstimateBudget, err)
		}
	case prof == nil:
		return nil, nil, ErrNoProfile
	case len(prof.Funcs) != len(mod.Funcs):
		return nil, nil, fmt.Errorf("engine: profile has %d functions, module has %d",
			len(prof.Funcs), len(mod.Funcs))
	}
	return mod, prof, nil
}

// solve loads the request's module and profile (load key lk), then
// lays out and (optionally) bounds every function with a in one
// align.Run on the shared worker pool.
func (e *Engine) solve(ctx context.Context, a align.Aligner, req Request, lk Key) (*Result, error) {
	mod, prof, err := e.load(&req, lk)
	if err != nil {
		return nil, err
	}
	par := req.Parallelism
	if par == 0 {
		par = e.parallelism
	}
	// At most Workers per-function tasks run at once across all
	// requests, and nested solver runs draw from the same pool.
	ro := align.RunOptions{Seed: req.Seed, Parallelism: par, Pool: e.pool, MaxKicks: req.MaxKicks, Obs: req.Obs}
	if req.Bound {
		// The Held-Karp bound is on the control penalty of ANY layout of
		// the function, so it is meaningful (and identical up to ascent
		// depth) under every algorithm.
		hkIters := req.HKIterations
		if hkIters <= 0 {
			hkIters = 1000
		}
		ro.Bound = &tsp.HeldKarpOptions{Iterations: hkIters}
	}
	run := align.Run(ctx, a, mod, prof, req.Model, ro)
	if err := run.Layout.Validate(mod); err != nil {
		return nil, fmt.Errorf("engine: solver produced invalid layout: %w", err)
	}

	res := &Result{
		Layout:           run.Layout,
		Penalty:          run.Penalty,
		OriginalPenalty:  layout.ModulePenalty(mod, layout.Identity(mod, prof, req.Model), prof, req.Model),
		Bound:            run.Bound,
		Truncated:        run.Truncated,
		ProfileEstimated: req.StaticProfile,
		Funcs:            make([]FuncStat, len(mod.Funcs)),
	}
	for fi, fr := range run.Funcs {
		f := mod.Funcs[fi]
		st := FuncStat{
			Name:      f.Name,
			Cities:    len(f.Blocks),
			Order:     fr.Order,
			Cost:      int64(fr.Cost),
			Exact:     fr.Exact,
			Truncated: fr.Truncated,
			Kicks:     fr.Kicks,
		}
		if req.Bound {
			st.Bound = int64(fr.Bound.Bound)
			st.GapPct = stats.GapPct(st.Cost, st.Bound)
		}
		res.Funcs[fi] = st
	}
	return res, nil
}
