// Package pipe is a trace-driven pipeline and instruction-cache
// simulator standing in for the paper's AlphaStation 500/266
// measurements. It replays the dynamic basic-block trace of a program
// under a given code layout and charges:
//
//   - one cycle per fetched instruction slot (ideal single-issue base),
//   - the machine model's control penalties per executed terminator
//     (exactly the quantities branch alignment minimizes), and
//   - a miss penalty per instruction-cache line miss (a set-associative
//     LRU cache scaled from the Alpha 21164's 8 KB L1; see DefaultCache).
//
// The cache term is deliberately *not* part of the alignment cost model;
// it reproduces the paper's observation that "good branch alignments also
// appear to be good for caching", giving TSP layouts a larger win in
// simulated execution time than their control-penalty advantage alone
// predicts.
package pipe

import (
	"fmt"

	"branchalign/internal/check"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/layout"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
)

// Cost aliases the shared cycle type.
type Cost = machine.Cost

// CacheConfig describes a set-associative instruction cache with LRU
// replacement (Ways = 1 gives the direct-mapped 21164 geometry).
type CacheConfig struct {
	// SizeBytes is the total capacity (must be a multiple of
	// LineBytes*Ways).
	SizeBytes int
	// LineBytes is the line size.
	LineBytes int
	// Ways is the set associativity (<= 0 means direct-mapped).
	Ways int
	// MissPenalty is charged per line miss, in cycles.
	MissPenalty Cost
	// Disabled turns the cache model off (no misses charged).
	Disabled bool
}

// DefaultCache returns the default I-cache: direct-mapped with a 10-cycle
// miss penalty (L2 latency), shaped like the Alpha 21164's 8 KB L1 but
// scaled to this repository's benchmark programs. The Mini-C benchmarks
// are roughly two orders of magnitude smaller than their SPEC92
// counterparts (about 0.5-1.5 KB of code vs. 100 KB+), so the capacity is
// scaled by the same factor: a 512-byte cache with 16-byte lines keeps
// the paper-relevant regime where hot paths contend for cache space and
// code layout visibly changes the miss rate. The unscaled 21164 geometry
// (8 KB direct-mapped, 32-byte lines) fits every Mini-C benchmark
// entirely, so layout-dependent cache behavior vanishes under it.
func DefaultCache() CacheConfig {
	return CacheConfig{SizeBytes: 512, LineBytes: 16, Ways: 2, MissPenalty: 10}
}

// Config bundles the simulation parameters.
type Config struct {
	Model machine.Model
	Cache CacheConfig
	// Predictor selects static (paper default) or dynamic two-bit
	// prediction for charging penalties.
	Predictor PredictorConfig
	// FuncOrder, when non-nil, places functions in this order instead of
	// module order (interprocedural procedure ordering; see
	// layout.OrderFunctions).
	FuncOrder []int
	// SelfCheck is the debug flag that runs the invariant checker
	// (package check) around the simulation: the module and layout are
	// audited before replay (structure, permutation validity, patch
	// equivalence, placement and cost bookkeeping) and, when the run
	// collects a profile, flow conservation is verified afterwards.
	// Violations surface as errors from Run / RunChecked.
	SelfCheck bool
	// Obs, when non-nil, is the parent span simulation telemetry is
	// recorded under: Run and Replay emit one span per simulation
	// carrying the final Stats (cycles, CPI, cache miss rate,
	// mispredicts). The simulator hot loop is not instrumented — the
	// stats are accumulated anyway — so tracing costs nothing per event.
	Obs *obs.Span
}

// place builds the placed module respecting Config.FuncOrder.
func (c Config) place(mod *ir.Module, l *layout.Layout) *layout.PlacedModule {
	if c.FuncOrder != nil {
		return layout.PlaceModuleOrdered(mod, l, c.FuncOrder)
	}
	return layout.PlaceModule(mod, l)
}

// DefaultConfig returns the paper's machine: Alpha 21164 penalties with
// the default I-cache.
func DefaultConfig() Config {
	return Config{Model: machine.Alpha21164(), Cache: DefaultCache()}
}

// Stats summarizes a simulated execution.
type Stats struct {
	// Cycles is the simulated execution time.
	Cycles Cost
	// Instructions counts fetched instruction slots (incl. fixup jumps).
	Instructions int64
	// ControlPenalty is the cycles lost to branch penalties, including
	// the layout-independent call/return misfetches.
	ControlPenalty Cost
	// AlignablePenalty is the part of ControlPenalty that layout can
	// change (excludes calls and returns); it should track
	// layout.ModulePenalty.
	AlignablePenalty Cost
	// CacheAccesses and CacheMisses count I-cache line lookups and
	// misses.
	CacheAccesses int64
	CacheMisses   int64
	// FixupJumps counts executions that flowed through inserted fixup
	// blocks.
	FixupJumps int64
	// CondMispredicts and MultiMispredicts count mispredicted conditional
	// and multiway branches (under whichever predictor is configured).
	CondMispredicts  int64
	MultiMispredicts int64
	// Events counts trace events replayed.
	Events int64
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// MissRate returns the I-cache miss rate.
func (s Stats) MissRate() float64 {
	if s.CacheAccesses == 0 {
		return 0
	}
	return float64(s.CacheMisses) / float64(s.CacheAccesses)
}

// Simulator replays edge-trace events against a placed module.
type Simulator struct {
	pm    *layout.PlacedModule
	cfg   Config
	succs [][]int // layout successor per [func][block]
	// tags[set*ways+way] holds resident line tags (-1 = invalid); lru
	// holds per-entry access stamps for LRU replacement within a set.
	tags  []int64
	lru   []int64
	clock int64
	sets  int
	ways  int
	pred  *twoBitPredictor // nil for static prediction
	stats Stats
}

// NewSimulator prepares a simulator for the given placement.
func NewSimulator(pm *layout.PlacedModule, cfg Config) *Simulator {
	if cfg.Cache.LineBytes <= 0 || cfg.Cache.SizeBytes < cfg.Cache.LineBytes {
		cfg.Cache = DefaultCache()
	}
	ways := cfg.Cache.Ways
	if ways <= 0 {
		ways = 1
	}
	s := &Simulator{
		pm:   pm,
		cfg:  cfg,
		ways: ways,
		sets: cfg.Cache.SizeBytes / cfg.Cache.LineBytes / ways,
	}
	if s.sets < 1 {
		s.sets = 1
	}
	if cfg.Predictor.Kind == PredictTwoBit {
		s.pred = newTwoBitPredictor(cfg.Predictor.normalized())
	}
	s.tags = make([]int64, s.sets*s.ways)
	s.lru = make([]int64, s.sets*s.ways)
	for i := range s.tags {
		s.tags[i] = -1
	}
	for fi, f := range pm.Mod.Funcs {
		s.succs = append(s.succs, pm.Funcs[fi].FL.LayoutSuccessors(f))
	}
	return s
}

// fetch charges the fetch of size instruction slots starting at slot
// address addr: base cycles plus cache misses.
func (s *Simulator) fetch(addr, size int64) {
	s.stats.Instructions += size
	s.stats.Cycles += size
	if s.cfg.Cache.Disabled || size == 0 {
		return
	}
	lineBytes := int64(s.cfg.Cache.LineBytes)
	first := addr * layout.BytesPerSlot / lineBytes
	last := (addr + size - 1) * layout.BytesPerSlot / lineBytes
	for line := first; line <= last; line++ {
		s.stats.CacheAccesses++
		s.clock++
		set := int(line % int64(s.sets))
		base := set * s.ways
		hit := false
		victim := base
		for w := 0; w < s.ways; w++ {
			e := base + w
			if s.tags[e] == line {
				hit = true
				s.lru[e] = s.clock
				break
			}
			if s.lru[e] < s.lru[victim] {
				victim = e
			}
		}
		if !hit {
			s.tags[victim] = line
			s.lru[victim] = s.clock
			s.stats.CacheMisses++
			s.stats.Cycles += s.cfg.Cache.MissPenalty
		}
	}
}

// OnEdge consumes one trace event: block `block` of function `fn`
// executed and left through successor index succIdx (-1 for return).
//
// Penalties are computed from the transfer's direction (layout.TakenPath)
// and the configured predictor. With static prediction this reproduces
// layout.Exec exactly (TestAlignablePenaltyMatchesLayoutPenalty pins the
// equality); with the two-bit predictor the same transfers are charged
// against simulated hardware state instead.
func (s *Simulator) OnEdge(fn, block, succIdx int) {
	s.stats.Events++
	pf := s.pm.Funcs[fn]
	f := s.pm.Mod.Funcs[fn]
	s.fetch(pf.Addr[block], pf.Size[block])
	if succIdx < 0 {
		// Return: charge the return misfetch plus the call that brought
		// us here (calls and returns pair up; layout cannot change them).
		pen := s.cfg.Model.RetCost + s.cfg.Model.CallCost
		s.stats.Cycles += pen
		s.stats.ControlPenalty += pen
		return
	}
	fl := pf.FL
	layoutSucc := s.succs[fn][block]
	blk := f.Blocks[block]
	taken, viaFixup := fl.TakenPath(f, block, succIdx, layoutSucc)
	branchAddr := pf.Addr[block] + pf.Size[block] - 1
	m := s.cfg.Model
	var pen Cost
	switch blk.Term.Kind {
	case ir.TermBr:
		if taken {
			pen = m.JumpCost
		}
	case ir.TermCondBr:
		var predictedTaken bool
		if s.pred != nil {
			predictedTaken = s.pred.predictDirection(branchAddr, taken)
		} else {
			predictedTaken = fl.PredictedTaken(f, block, layoutSucc)
		}
		switch {
		case predictedTaken == taken && taken:
			pen = m.CondTakenCorrect
		case predictedTaken == taken:
			pen = m.CondFallthroughCorrect
		default:
			pen = m.CondMispredict
			s.stats.CondMispredicts++
		}
		if viaFixup {
			pen += m.JumpCost
		}
	case ir.TermSwitch:
		target := blk.Term.Succs[succIdx]
		var correct bool
		if s.pred != nil {
			correct = s.pred.predictTarget(branchAddr, pf.Addr[target])
		} else {
			correct = succIdx == fl.Pred[block]
		}
		switch {
		case correct && target == layoutSucc:
			pen = m.MultiCorrectFallthrough
		case correct:
			pen = m.MultiCorrectTaken
		default:
			pen = m.MultiMispredict
			s.stats.MultiMispredicts++
		}
	}
	s.stats.Cycles += pen
	s.stats.ControlPenalty += pen
	s.stats.AlignablePenalty += pen
	if viaFixup {
		s.stats.FixupJumps++
		s.fetch(pf.FixupAddr[block], 1)
	}
}

// Stats returns the accumulated statistics.
func (s *Simulator) Stats() Stats { return s.stats }

// statsAttrs flattens simulation statistics into span attributes.
func statsAttrs(st Stats) []obs.Attr {
	return []obs.Attr{
		obs.Int("cycles", int64(st.Cycles)),
		obs.Int("instructions", st.Instructions),
		obs.Int("control_penalty", int64(st.ControlPenalty)),
		obs.Int("alignable_penalty", int64(st.AlignablePenalty)),
		obs.Int("cache_accesses", st.CacheAccesses),
		obs.Int("cache_misses", st.CacheMisses),
		obs.Float("miss_rate", st.MissRate()),
		obs.Float("cpi", st.CPI()),
		obs.Int("fixup_jumps", st.FixupJumps),
		obs.Int("cond_mispredicts", st.CondMispredicts),
		obs.Int("multi_mispredicts", st.MultiMispredicts),
		obs.Int("events", st.Events),
	}
}

// endSim closes a simulation span with the final statistics and feeds
// the trace-level cache counters.
func endSim(sp *obs.Span, st Stats) {
	if sp == nil {
		return
	}
	sp.Count("pipe.cache_accesses", st.CacheAccesses)
	sp.Count("pipe.cache_misses", st.CacheMisses)
	sp.End(statsAttrs(st)...)
}

// Run interprets mod on inputs while simulating the given layout, and
// returns the simulation statistics together with the interpreter result.
//
// With cfg.SelfCheck set, the invariant checker audits the module and
// layout before the simulation starts and verifies flow conservation of
// the run's profile afterwards; any violation is returned as an error.
func Run(mod *ir.Module, l *layout.Layout, inputs []interp.Input, cfg Config, opts interp.Options) (Stats, interp.Result, error) {
	if cfg.SelfCheck {
		r := check.Module(mod)
		r.Merge(check.LayoutStructure(mod, l))
		if err := r.Err(); err != nil {
			return Stats{}, interp.Result{}, fmt.Errorf("pipe: self-check before run: %w", err)
		}
		// A caller-seeded profile must at least match the module's shape
		// before the interpreter accumulates into it; conservation of the
		// total is audited after the run (the seed may be a legitimate
		// prior run being extended).
		if opts.Profile != nil {
			if err := opts.Profile.CheckShape(mod); err != nil {
				return Stats{}, interp.Result{}, fmt.Errorf("pipe: self-check before run: %w", err)
			}
		} else {
			opts.Profile = interp.NewProfile(mod)
		}
	}
	sp := cfg.Obs.Child("pipe.run")
	pm := cfg.place(mod, l)
	sim := NewSimulator(pm, cfg)
	opts.EdgeTrace = sim.OnEdge
	res, err := interp.Run(mod, inputs, opts)
	if err != nil {
		sp.End(obs.Bool("failed", true))
		return Stats{}, res, err
	}
	if cfg.SelfCheck {
		if err := ValidateProfile(mod, opts.Profile); err != nil {
			sp.End(obs.Bool("failed", true))
			return Stats{}, res, fmt.Errorf("pipe: self-check after run: %w", err)
		}
	}
	endSim(sp, sim.Stats())
	return sim.Stats(), res, nil
}

// ValidateProfile audits a profile that did not come from this process's
// own instrumented run — one read from disk, or estimated statically by
// internal/staticprof — against mod: dimensional shape first, then exact
// flow conservation (check.Flow). Estimated profiles must meet the same
// bar as measured ones; the estimator guarantees conservation by
// construction, so a violation here is an estimator or transport bug.
func ValidateProfile(mod *ir.Module, prof *interp.Profile) error {
	if prof == nil {
		return fmt.Errorf("pipe: validating profile: profile is nil")
	}
	if err := prof.CheckShape(mod); err != nil {
		return fmt.Errorf("pipe: validating profile: %w", err)
	}
	if err := check.Flow(mod, prof).Err(); err != nil {
		return fmt.Errorf("pipe: validating profile: %w", err)
	}
	return nil
}

// Trace is a recorded edge trace, replayable under different layouts so
// that layout comparisons share one program execution.
type Trace struct {
	events []uint64
}

const (
	traceFnShift  = 40
	traceBlkShift = 16
	traceSuccMask = (1 << traceBlkShift) - 1
	traceBlkMask  = (1 << (traceFnShift - traceBlkShift)) - 1
)

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// Record executes mod on inputs and records the edge trace.
func Record(mod *ir.Module, inputs []interp.Input, opts interp.Options) (*Trace, interp.Result, error) {
	tr := &Trace{}
	opts.EdgeTrace = func(fn, block, succIdx int) {
		if fn > traceSuccMask || block > traceBlkMask || succIdx+1 > traceSuccMask {
			panic(fmt.Sprintf("pipe: trace encoding overflow (fn=%d block=%d succ=%d)", fn, block, succIdx))
		}
		tr.events = append(tr.events,
			uint64(fn)<<traceFnShift|uint64(block)<<traceBlkShift|uint64(succIdx+1))
	}
	res, err := interp.Run(mod, inputs, opts)
	if err != nil {
		return nil, res, err
	}
	return tr, res, nil
}

// Replay simulates a recorded trace under the given layout. With
// cfg.SelfCheck set it panics on a module or layout invariant violation
// (use ReplayChecked to get the violation as an error instead).
func Replay(tr *Trace, mod *ir.Module, l *layout.Layout, cfg Config) Stats {
	if cfg.SelfCheck {
		st, err := ReplayChecked(tr, mod, l, cfg)
		if err != nil {
			panic(err)
		}
		return st
	}
	sp := cfg.Obs.Child("pipe.replay", obs.Int("trace_events", int64(tr.Len())))
	pm := cfg.place(mod, l)
	sim := NewSimulator(pm, cfg)
	for _, e := range tr.events {
		fn := int(e >> traceFnShift)
		block := int(e>>traceBlkShift) & traceBlkMask
		succ := int(e&traceSuccMask) - 1
		sim.OnEdge(fn, block, succ)
	}
	endSim(sp, sim.Stats())
	return sim.Stats()
}

// ReplayChecked is Replay with the invariant checker run first: the
// module and the layout are audited (structure, permutation validity,
// patch equivalence, placement) and a violation is returned as an error
// instead of replaying a trace against a corrupt layout.
func ReplayChecked(tr *Trace, mod *ir.Module, l *layout.Layout, cfg Config) (Stats, error) {
	r := check.Module(mod)
	r.Merge(check.LayoutStructure(mod, l))
	if err := r.Err(); err != nil {
		return Stats{}, fmt.Errorf("pipe: self-check before replay: %w", err)
	}
	cfg.SelfCheck = false
	return Replay(tr, mod, l, cfg), nil
}
