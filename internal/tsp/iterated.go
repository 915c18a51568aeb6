package tsp

import (
	"context"
	"math/rand"
	"runtime"
	"sync"

	"branchalign/internal/obs"
	"branchalign/internal/work"
)

// doubleBridge applies the classic 4-opt double-bridge kick to tour t,
// writing the kicked tour into dst's storage (grown if needed) so the
// kick loop reuses one buffer. dst must not alias t. The tour is cut into
// four consecutive segments A B C D and reassembled as A C B D. The move
// is reversal-free, so it is feasible on the locked symmetric
// transformation (it corresponds to the "randomly-chosen 4-Opt move" of
// Martin, Otto and Felten used by the paper's solver). Tours with fewer
// than 4 cities are returned unchanged, consuming no random draws;
// longer ones take three Intn draws.
//
// It also returns the six endpoints of the three cut edges, t[p1-1],
// t[p1], t[p2-1], t[p2], t[p3-1] and t[p3]: the only cities whose
// neighbors the kick changed, which ThreeOpt.SetKickedTour wakes. A tour
// too short to cut returns its cities (repeated) in their place.
//
// With a non-nil m it also returns the kicked tour's cost, derived from
// the cost of t by the kick's six-edge delta (the double bridge removes
// the three cut edges and adds three reconnections; the closing edge is
// untouched). Six At reads replace the O(n) CycleCost rescan the kick
// loop would otherwise pay per kick. With a nil m cost is passed
// through.
func doubleBridge(dst, t Tour, rng *rand.Rand, m *SparseMatrix, cost Cost) (Tour, Cost, [6]int) {
	var ends [6]int
	n := len(t)
	if n < 4 {
		for i := range ends {
			ends[i] = t[i%n]
		}
		return append(dst[:0], t...), cost, ends
	}
	// Pick 1 <= p1 < p2 < p3 < n.
	p1 := 1 + rng.Intn(n-3)
	p2 := p1 + 1 + rng.Intn(n-p1-2)
	p3 := p2 + 1 + rng.Intn(n-p2-1)
	dst = append(dst[:0], t[:p1]...)
	dst = append(dst, t[p2:p3]...)
	dst = append(dst, t[p1:p2]...)
	dst = append(dst, t[p3:]...)
	ends = [6]int{t[p1-1], t[p1], t[p2-1], t[p2], t[p3-1], t[p3]}
	if m != nil {
		cost += m.At(t[p1-1], t[p2]) + m.At(t[p3-1], t[p1]) + m.At(t[p2-1], t[p3]) -
			m.At(t[p1-1], t[p1]) - m.At(t[p2-1], t[p2]) - m.At(t[p3-1], t[p3])
	}
	return dst, cost, ends
}

// runTelemetry carries per-run iterated-local-search diagnostics.
type runTelemetry struct {
	kicks, kickAccepts int64
	// stats holds the per-move-family counter deltas for this run (the
	// optimizer accumulates across runs; iteratedThreeOpt differences
	// snapshots taken around the run).
	stats MoveStats
	// iterBest is the kick iteration at which the best tour was found
	// (0 = the initial local optimum).
	iterBest int
}

// solveWorkspace holds one run's reusable scratch: the local-search
// state and the incumbent/best/kick tour buffers. Runs hand workspaces
// back through a per-solve sync.Pool, so a solve allocates one workspace
// per concurrently executing run instead of one optimizer plus three
// tours per kick. Reuse is exact: SetTour resets every piece of
// optimizer state a fresh NewThreeOpt would initialize (the move
// counters keep accumulating, which iteratedThreeOpt corrects for by
// differencing), so a reused workspace yields bit-identical results to a
// fresh one.
type solveWorkspace struct {
	o    *ThreeOpt
	cur  Tour
	best Tour
	kick Tour
}

// iteratedThreeOpt runs Martin-Otto-Felten iterated local search:
// optimize the start tour to a local optimum, then repeatedly kick with a
// double bridge, re-optimize, and keep the better of the incumbent and
// the kicked solution. It performs iters kick-and-reoptimize rounds and
// returns the best tour found with its cost. Each kick wakes only the six
// endpoints of its cut edges (ThreeOpt.SetKickedTour): the incumbent is a
// local optimum, so every other city starts the re-optimization
// don't-look, as in Johnson and McGeoch's engineering of the
// Martin-Otto-Felten kicks. When sp is non-nil the
// cost-vs-iteration convergence series is recorded on it (the initial
// local optimum plus every accepted kick). The kick loop stops at the
// first boundary where rb's kick quota is exhausted or its context
// cancelled — the best tour found so far is returned either way. nb
// holds m's candidate lists, and ws is the run's workspace, empty or
// recycled from a previous run on the same instance. The run statistics
// are returned in all cases; they cost a handful of integer updates per
// kick, far off the 3-opt inner loop.
func iteratedThreeOpt(m *SparseMatrix, nb *Neighbors, ws *solveWorkspace, start Tour, iters int, rng *rand.Rand, sp *obs.Span, rb *runBudget) (Tour, Cost, runTelemetry) {
	var rt runTelemetry
	if ws.o == nil {
		ws.o = NewThreeOpt(m, nb, start)
	} else {
		ws.o.SetTour(start)
	}
	o := ws.o
	stats0 := o.MoveStats()
	o.Optimize()
	ws.cur = o.AppendTour(ws.cur)
	curCost := o.Cost()
	ws.best = append(ws.best[:0], ws.cur...)
	bestCost := curCost
	series := sp.Series("tour_cost")
	series.Add(0, float64(curCost))
	for i := 0; i < iters && rb.allow(); i++ {
		rb.spend()
		var kickCost Cost
		var ends [6]int
		ws.kick, kickCost, ends = doubleBridge(ws.kick, ws.cur, rng, m, curCost)
		o.SetKickedTour(ws.kick, kickCost, ends)
		o.Optimize()
		rt.kicks++
		if o.Cost() <= curCost {
			rt.kickAccepts++
			ws.cur = o.AppendTour(ws.cur)
			curCost = o.Cost()
			series.Add(int64(i+1), float64(curCost))
			if curCost < bestCost {
				ws.best = append(ws.best[:0], ws.cur...)
				bestCost = curCost
				rt.iterBest = i + 1
			}
		}
	}
	rt.stats = o.MoveStats().Sub(stats0)
	return ws.best.Clone(), bestCost, rt
}

// The paper's solver protocol: every instance past ExactMaxCities gets the
// 10 iterated-3-Opt runs of runPlan — 5 from randomized greedy-edge tours,
// 4 from randomized nearest-neighbor tours and 1 from the compiler order —
// of kicksPerCity*N double-bridge kicks each. Solve runs exactly this
// plan at every size; only the seed, the parallelism and the budget vary
// per call. Every run's seed, kick quota and merge position follow from
// its index in runPlan, which is what makes execution order irrelevant.
var runPlan = [...]startKind{
	startGreedy, startGreedy, startGreedy, startGreedy, startGreedy,
	startNN, startNN, startNN, startNN,
	startIdentity,
}

const kicksPerCity = 2

// ExactMaxCities is the exact-DP cutoff: Solve answers instances of at
// most this many cities with SolveExact instead of local search (a
// production shortcut the paper's AT&T code did not need), and
// Held-Karp callers use the same cutoff to floor a bound at the optimum.
const ExactMaxCities = 12

// SolveOptions configures one Solve call. The zero value, with a Seed,
// is the paper's protocol run sequentially and without a budget.
type SolveOptions struct {
	// Seed seeds the deterministic random stream. Each local-search run
	// draws from its own stream, derived from (Seed, run index, start
	// kind) by a splitmix64 mixer, so the result is a function of Seed
	// alone — identical at every Parallelism setting.
	Seed int64
	// Parallelism is the maximum number of local-search runs executed
	// concurrently within this solve. 0 and 1 run sequentially; negative
	// values select GOMAXPROCS. The result is bit-identical at every
	// setting (only wall-clock changes); see Seed.
	Parallelism int
	// Pool, when non-nil, is the bounded worker pool concurrent runs are
	// scheduled on; nil with Parallelism > 1 uses the process-wide
	// work.Shared() pool. Sharing one pool with per-function callers
	// (align, the engine) keeps the two parallelism layers from
	// oversubscribing the machine: nested run fan-out only recruits
	// workers the pool has free, and degrades to the calling goroutine
	// otherwise.
	Pool *work.Pool
	// Obs, when non-nil, is the parent span solver telemetry is recorded
	// under: a "tsp.solve" child span with one "tsp.run" span (carrying
	// the tour-cost convergence series and move counters) per
	// local-search run. A nil Obs — the default — records nothing and
	// costs nothing on the hot path.
	Obs *obs.Span
	// Context, when non-nil, cancels the solve at the next kick boundary
	// (and between local-search runs). The solve then returns its
	// best-so-far tour with Result.Truncated set — always a valid
	// permutation, never an error. A nil Context never cancels, and the
	// cancellation checks never touch the random stream, so an
	// uncancelled solve is bit-identical to one without any context.
	// The context is the solver's one wall-clock signal.
	Context context.Context
	// MaxKicks caps the total double-bridge kick rounds across all
	// local-search runs of the solve; 0 means unlimited. The cap is
	// partitioned over the run plan deterministically, so a capped
	// solve is still a function of Seed and MaxKicks alone.
	MaxKicks int64
}

// Result reports the outcome of Solve.
type Result struct {
	Tour Tour
	Cost Cost
	// Exact is true when the instance was solved by exact DP, so Cost is
	// provably optimal.
	Exact bool
	// RunsAtBest counts how many of the local-search runs ended at the
	// returned cost (the appendix of the paper reports how often all 10
	// runs tie).
	RunsAtBest int
	// Runs is the number of local-search runs performed.
	Runs int
	// IterationsToBest is the kick iteration at which the winning run
	// found the returned tour (0 for the initial local optimum, and for
	// exact solves).
	IterationsToBest int
	// MovesTried and MovesAccepted total the candidate 3-opt
	// segment-exchange moves examined and applied across all runs (0 for
	// exact solves).
	MovesTried, MovesAccepted int64
	// OrMovesTried and OrMovesAccepted are the same totals for the
	// Or-opt relocation family (0 for exact solves).
	OrMovesTried, OrMovesAccepted int64
	// Kicks totals the double-bridge kick rounds performed across all
	// runs (0 for exact solves).
	Kicks int64
	// Truncated is true when the solve was cut short — the context was
	// cancelled or MaxKicks ran out before the protocol completed. The
	// returned tour is still the valid best-so-far incumbent.
	Truncated bool
}

// startKind identifies how a local-search run's start tour is built. The
// numeric value feeds the per-run seed derivation, so the constants are
// part of the reproducibility contract: reordering them reseeds every
// solve.
type startKind uint8

const (
	startGreedy startKind = iota
	startNN
	startIdentity
)

func (k startKind) String() string {
	switch k {
	case startGreedy:
		return "greedy"
	case startNN:
		return "nn"
	default:
		return "identity"
	}
}

// splitmix64 is the finalizer of Steele, Lea and Flood's SplitMix64
// generator — a cheap, well-mixed 64-bit permutation used to derive
// independent per-run seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// runSeed derives the random-stream seed for one local-search run from
// the solve seed, the run's index in the plan, and its start kind. Each
// run owning an independent stream is what makes the solve a pure
// function of SolveOptions.Seed regardless of execution schedule. The
// kind participates so that runs of different start kinds never share
// randomness by coincidence of position; dropping it now would reseed
// every solve.
func runSeed(seed int64, run int, kind startKind) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x + uint64(run))
	x = splitmix64(x + uint64(kind))
	return int64(x)
}

// runOutcome is one run's contribution to the deterministic merge.
// executed distinguishes runs skipped by cancellation (which sequential
// execution would also have skipped) from completed ones.
type runOutcome struct {
	executed bool
	tour     Tour
	cost     Cost
	rt       runTelemetry
}

// Solve finds a low-cost directed Hamiltonian cycle for m: exact DP up
// to ExactMaxCities cities, the paper's multi-start iterated 3-opt
// protocol above. Every kernel is a pure function of the At values, so
// two encodings of the same instance give identical results.
//
// The runs of the protocol are independent: each draws randomness from
// its own stream (see runSeed) and they execute concurrently when
// SolveOptions.Parallelism allows, merging deterministically afterwards
// — lowest cost wins, ties broken by run-plan order. The result is
// therefore bit-identical across Parallelism settings, GOMAXPROCS
// values and goroutine schedules; only wall-clock time and the
// interleaving of telemetry events vary. The one exception is
// cancellation through Context, which by nature depends on when each
// run observes it; MaxKicks truncation is partitioned deterministically
// and stays bit-identical.
func Solve(m *SparseMatrix, opt SolveOptions) Result {
	n := m.Len()
	sp := opt.Obs.Child("tsp.solve", obs.Int("cities", int64(n)), obs.Int("exceptions", int64(m.Exceptions())))
	if n <= ExactMaxCities {
		t, c := SolveExact(m)
		sp.Count("tsp.exact_solves", 1)
		sp.End(obs.Int("cost", c), obs.Bool("exact", true), obs.Int("runs", 1))
		return Result{Tour: t, Cost: c, Exact: true, RunsAtBest: 1, Runs: 1}
	}
	return localSearch(m, opt, sp)
}

// localSearch runs the multi-start iterated 3-opt protocol on m whatever
// its size, recording under sp (which it ends). Solve calls it past
// ExactMaxCities.
func localSearch(m *SparseMatrix, opt SolveOptions, sp *obs.Span) Result {
	n := m.Len()
	iters := kicksPerCity * n
	nb := BuildNeighbors(m)

	// Deterministic MaxKicks partition, replicating sequential
	// consumption: run i would start with i*iters kicks already spent, so
	// it runs only if that is under the budget and gets the remainder,
	// capped at its own iteration count. A protocol that finishes exactly
	// at the budget is not truncated (sequential execution would never
	// have consulted the budget again).
	planned := len(runPlan)
	quotaTrunc := false
	maxKicks := opt.MaxKicks
	if maxKicks > 0 && maxKicks < int64(planned)*int64(iters) {
		quotaTrunc = true
		planned = int((maxKicks + int64(iters) - 1) / int64(iters))
	}
	sb := &solveBudget{ctx: opt.Context}

	outcomes := make([]runOutcome, planned)
	var wsPool sync.Pool // *solveWorkspace, all bound to (m, nb)
	// doRun performs the plan's i-th iterated-local-search run from its
	// own seeded stream, recording a "tsp.run" span when tracing is on.
	// It is called at most once per i, possibly concurrently.
	doRun := func(i int) {
		if sb.cancelledNow() {
			// Sequential execution checks the budget before each run;
			// an unexecuted run contributes nothing to the merge.
			return
		}
		kind := runPlan[i]
		rng := rand.New(rand.NewSource(runSeed(opt.Seed, i, kind)))
		var start Tour
		switch kind {
		case startGreedy:
			start = GreedyEdge(m, nb, rng)
		case startNN:
			start = NearestNeighbor(m, rng.Intn(n), rng)
		case startIdentity:
			start = IdentityTour(n)
		}
		rb := &runBudget{sb: sb, quota: -1}
		if maxKicks > 0 {
			rb.quota = maxKicks - int64(i)*int64(iters)
			if rb.quota > int64(iters) {
				rb.quota = int64(iters)
			}
		}
		rs := sp.Child("tsp.run", obs.String("start", kind.String()), obs.Int("run", int64(i)))
		if rs != nil {
			rs.SetAttrs(obs.Int("start_cost", CycleCost(m, start)))
		}
		ws, _ := wsPool.Get().(*solveWorkspace)
		if ws == nil {
			ws = &solveWorkspace{}
		}
		t, c, rt := iteratedThreeOpt(m, nb, ws, start, iters, rng, rs, rb)
		wsPool.Put(ws)
		rs.Count("tsp.kicks", rt.kicks)
		rs.Count("tsp.moves_tried", rt.stats.TriedTotal())
		rs.Count("tsp.moves_accepted", rt.stats.AcceptedTotal())
		rs.ObserveBatch("tsp.splice_len", rt.stats.SpliceBuckets[:], float64(rt.stats.SpliceSum))
		rs.End(obs.Int("cost", c), obs.Int("iter_best", int64(rt.iterBest)),
			obs.Int("kicks", rt.kicks), obs.Int("kick_accepts", rt.kickAccepts),
			obs.Int("moves_tried", rt.stats.Tried), obs.Int("moves_accepted", rt.stats.Accepted),
			obs.Int("or_moves_tried", rt.stats.OrTried), obs.Int("or_moves_accepted", rt.stats.OrAccepted))
		outcomes[i] = runOutcome{executed: true, tour: t, cost: c, rt: rt}
	}
	par := opt.Parallelism
	if par < 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par < 1 {
		par = 1
	}
	var pool *work.Pool
	if par > 1 {
		pool = opt.Pool
		if pool == nil {
			pool = work.Shared()
		}
	}
	pool.Nested(planned, par, doRun)

	// Deterministic merge in plan order: lowest cost wins, ties go to
	// the earliest run, counters aggregate over executed runs — exactly
	// the sequential fold.
	var res Result
	for i := range outcomes {
		oc := &outcomes[i]
		if !oc.executed {
			continue
		}
		res.Runs++
		res.MovesTried += oc.rt.stats.Tried
		res.MovesAccepted += oc.rt.stats.Accepted
		res.OrMovesTried += oc.rt.stats.OrTried
		res.OrMovesAccepted += oc.rt.stats.OrAccepted
		switch {
		case res.Tour == nil || oc.cost < res.Cost:
			res.Tour = oc.tour
			res.Cost = oc.cost
			res.RunsAtBest = 1
			res.IterationsToBest = oc.rt.iterBest
		case oc.cost == res.Cost:
			res.RunsAtBest++
		}
	}
	if res.Tour == nil {
		// Cancelled before the first run produced anything: the compiler
		// order is the valid best-so-far layout.
		res.Tour = IdentityTour(n)
		res.Cost = CycleCost(m, res.Tour)
		res.Runs = 1
		res.RunsAtBest = 1
	}
	res.Kicks = sb.kicks.Load()
	res.Truncated = quotaTrunc || sb.cancelled.Load()
	sp.End(obs.Int("cost", res.Cost), obs.Bool("exact", false), obs.Bool("truncated", res.Truncated),
		obs.Int("runs", int64(res.Runs)), obs.Int("runs_at_best", int64(res.RunsAtBest)),
		obs.Int("iter_best", int64(res.IterationsToBest)),
		obs.Int("moves_tried", res.MovesTried), obs.Int("moves_accepted", res.MovesAccepted),
		obs.Int("or_moves_tried", res.OrMovesTried), obs.Int("or_moves_accepted", res.OrMovesAccepted))
	return res
}
