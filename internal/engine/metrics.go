package engine

import (
	"time"

	"branchalign/internal/obs"
	"branchalign/internal/work"
)

// metrics are the engine's handles into the process metrics plane
// (obs.Registry). Every counter the engine ever exposed through Stats
// lives here now — Stats() reads these same cells back, so the JSON
// stats surface and the /metrics exposition can never drift: they are
// two renderings of one registry.
//
// Label cardinality is closed by construction: profile_mode is one of
// {measured, static}, cache one of {hit, miss, coalesced}, algorithm
// one of the registered aligner names (a compile-time table).
type metrics struct {
	requests    *obs.Counter
	cacheHits   *obs.Counter
	loadHits    *obs.Counter
	cacheMisses *obs.Counter
	evictions   *obs.Counter
	coalesced   *obs.Counter
	solves      *obs.Counter
	truncated   *obs.Counter
	errors      *obs.Counter
	inFlight    *obs.Gauge
	solveDur    *obs.HistogramVec
}

// solve-duration buckets: 2^-14 s (~61µs, a warm cache hit) up to
// 2^6 s (64s, a maximally budgeted solve).
const (
	solveDurMinExp = -14
	solveDurMaxExp = 6
)

// newMetrics registers the engine's metric families in reg and wires
// the live gauges: result-cache occupancy (entries) and retained loads
// (loads), both called at collection time, and the worker pool's
// capacity, active-task and queue-depth gauges plus its queue-wait
// histogram.
func newMetrics(reg *obs.Registry, pool *work.Pool, entries, loads func() float64) metrics {
	m := metrics{
		requests:    reg.Counter("engine_requests_total", "Alignment requests accepted by the engine (after validation)."),
		cacheHits:   reg.Counter("engine_cache_hits_total", "Requests served from the completed-result cache."),
		loadHits:    reg.Counter("engine_load_cache_hits_total", "Result-cache misses served a retained module and profile by the load cache, skipping compile, profiling run and static estimate."),
		cacheMisses: reg.Counter("engine_cache_misses_total", "Requests that found no completed cache entry and solved (or re-solved past an expired peer)."),
		evictions:   reg.Counter("engine_cache_evictions_total", "Completed results evicted from the cache by LRU capacity pressure."),
		coalesced:   reg.Counter("engine_coalesced_total", "Requests deduplicated onto an identical in-flight solve (single-flight)."),
		solves:      reg.Counter("engine_solves_total", "Solves that ran to completion (including truncated ones)."),
		truncated:   reg.Counter("engine_truncated_total", "Completed solves cut short by a deadline or work budget."),
		errors:      reg.Counter("engine_errors_total", "Solves that failed, a failed Load included (malformed requests are rejected before counting)."),
		inFlight:    reg.Gauge("engine_in_flight", "Leader solves executing right now."),
		solveDur: reg.HistogramVec("engine_solve_duration_seconds",
			"Engine request latency by profile mode, cache outcome and algorithm.",
			solveDurMinExp, solveDurMaxExp, "profile_mode", "cache", "algorithm"),
	}
	reg.GaugeFunc("engine_cache_entries", "Completed results currently cached.", entries)
	reg.GaugeFunc("engine_load_cache_entries", "Loaded modules and profiles the load cache currently retains (keys seen once excluded).", loads)
	reg.GaugeFunc("work_pool_capacity", "Maximum concurrently executing pool tasks.",
		func() float64 { return float64(pool.Cap()) })
	reg.GaugeFunc("work_pool_active_tasks", "Pool tasks (per-function solves and nested solver runs) executing right now.",
		func() float64 { return float64(pool.Active()) })
	reg.GaugeFunc("work_pool_queue_depth", "Helper goroutines blocked waiting for a pool token.",
		func() float64 { return float64(pool.Waiting()) })
	wait := reg.Histogram("work_pool_queue_wait_seconds",
		"Time helper goroutines spent queued for a pool token.", solveDurMinExp, solveDurMaxExp)
	pool.SetWaitObserver(func(d time.Duration) { wait.Observe(d.Seconds()) })
	return m
}

// observe records one finished request's latency under its profile
// mode, cache outcome ("hit", "miss" or "coalesced") and algorithm.
func (m *metrics) observe(start time.Time, static bool, outcome, algorithm string) {
	mode := "measured"
	if static {
		mode = "static"
	}
	m.solveDur.With(mode, outcome, algorithm).Observe(time.Since(start).Seconds())
}
