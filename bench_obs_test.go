// Telemetry overhead benchmarks: the obs tracer's contract is that a
// nil span costs nothing on the solver hot path, so instrumented code
// never needs a separate uninstrumented build. Each family runs the
// same work with tracing off (nil span) and on (in-memory sink):
//
//	go test -run '^$' -bench Telemetry -benchmem .
//
// The "off" numbers should match the pre-instrumentation solver within
// benchmark noise, and "off" must not allocate on behalf of telemetry.
package branchalign

import (
	"math/rand"
	"testing"

	"branchalign/internal/align"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/tsp"
)

// solveInstance builds the largest bundled function's DTSP instance —
// the 3-Opt inner loop dominates its solve time, which is exactly the
// path the disabled tracer must not slow down.
func solveInstance(b *testing.B) (*tsp.SparseMatrix, tsp.SolveOptions) {
	b.Helper()
	f, fp := largestBundledFunc(b)
	m := machine.Alpha21164()
	mat := align.BuildSparseMatrix(f, fp, m, nil)
	return mat, tsp.SolveOptions{Seed: 1}
}

func BenchmarkSolveTelemetry(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		mat, opt := solveInstance(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tsp.Solve(mat, opt)
		}
	})
	b.Run("on", func(b *testing.B) {
		mat, opt := solveInstance(b)
		tr := obs.New(&obs.MemorySink{})
		root := tr.Start("bench")
		opt.Obs = root
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tsp.Solve(mat, opt)
		}
		b.StopTimer()
		root.End()
		tr.Close()
	})
}

// BenchmarkHeldKarpTelemetry measures the subgradient driver, whose
// per-iteration span/series calls are the densest telemetry call sites
// outside the 3-Opt loop.
func BenchmarkHeldKarpTelemetry(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	n := 60
	b0 := tsp.NewSparseBuilder(n)
	for i := 0; i < n; i++ {
		var cols []int
		var vals []tsp.Cost
		for j := 0; j < n; j++ {
			if i != j {
				cols, vals = append(cols, j), append(vals, tsp.Cost(1+rng.Intn(1000)))
			}
		}
		b0.AddRow(0, cols, vals)
	}
	m := b0.Finish()
	opt := tsp.HeldKarpOptions{Iterations: 100}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tsp.HeldKarpBound(m, opt)
		}
	})
	b.Run("on", func(b *testing.B) {
		tr := obs.New(&obs.MemorySink{})
		root := tr.Start("bench")
		o := opt
		o.Obs = root
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tsp.HeldKarpBound(m, o)
		}
		b.StopTimer()
		root.End()
		tr.Close()
	})
}

// BenchmarkDisabledSpanOps pins the cost of the nil fast path itself:
// every obs entry point on a disabled tracer should be a couple of
// nil checks, with zero allocations.
func BenchmarkDisabledSpanOps(b *testing.B) {
	var tr *obs.Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("x", obs.Int("i", int64(i)))
		child := sp.Child("y")
		child.Count("c", 1)
		child.Series("s").Add(int64(i), 1.5)
		child.End()
		sp.End(obs.Float("v", 2.5))
	}
}

// BenchmarkRegistryTelemetry measures the metrics-plane update path the
// way the request path hits it: handles resolved once at construction,
// then counter increments, a labeled histogram observation, and a gauge
// swing per iteration. "off" runs the same call sequence against a nil
// registry — the disabled metrics plane must cost only nil checks and
// zero allocations, the same contract as the nil span.
func BenchmarkRegistryTelemetry(b *testing.B) {
	run := func(b *testing.B, reg *obs.Registry) {
		c := reg.Counter("bench_requests_total", "")
		cv := reg.CounterVec("bench_codes_total", "", "code")
		ok := cv.With("200")
		g := reg.Gauge("bench_inflight", "")
		hv := reg.HistogramVec("bench_latency_seconds", "", -14, 6, "mode")
		h := hv.With("measured")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Add(1)
			c.Inc()
			ok.Inc()
			h.Observe(float64(i%1000) * 1e-4)
			g.Add(-1)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, obs.NewRegistry()) })
}

// BenchmarkRegistryWith measures the label-resolution slow path (map
// lookup under lock per call) against the resolved-handle fast path, to
// keep the "resolve once, hold the handle" guidance in DESIGN.md honest.
func BenchmarkRegistryWith(b *testing.B) {
	reg := obs.NewRegistry()
	cv := reg.CounterVec("bench_lookup_total", "", "endpoint", "code")
	b.Run("resolve-each", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cv.With("/v1/align", "200").Inc()
		}
	})
	b.Run("held-handle", func(b *testing.B) {
		h := cv.With("/v1/align", "200")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Inc()
		}
	})
}
