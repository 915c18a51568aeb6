package obs

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestRegistryGolden pins the exposition byte for byte: family order,
// series order, label escaping, histogram le/+Inf/sum/count layout.
func TestRegistryGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("http_requests_total", "Requests served.", "endpoint", "code")
	reqs.With("/v1/align", "200").Add(3)
	reqs.With("/v1/align", "429").Inc()
	reqs.With("other", "404").Inc()
	r.Gauge("inflight", "In-flight requests.").Add(2)
	r.GaugeFunc("cache_entries", "Cached results.", func() float64 { return 5 })
	h := r.Histogram("latency_seconds", "Request latency.", -2, 2)
	for _, v := range []float64{0.2, 0.3, 1, 4, 100} {
		h.Observe(v)
	}
	// A label value exercising every escape: backslash, quote, newline.
	r.CounterVec("odd_labels_total", "Escaping fodder; help with \\ and\nnewline.", "k").
		With("a\"b\\c\nd").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cache_entries Cached results.
# TYPE cache_entries gauge
cache_entries 5
# HELP http_requests_total Requests served.
# TYPE http_requests_total counter
http_requests_total{endpoint="/v1/align",code="200"} 3
http_requests_total{endpoint="/v1/align",code="429"} 1
http_requests_total{endpoint="other",code="404"} 1
# HELP inflight In-flight requests.
# TYPE inflight gauge
inflight 2
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.25"} 1
latency_seconds_bucket{le="0.5"} 2
latency_seconds_bucket{le="1"} 3
latency_seconds_bucket{le="2"} 3
latency_seconds_bucket{le="4"} 4
latency_seconds_bucket{le="+Inf"} 5
latency_seconds_sum 105.5
latency_seconds_count 5
# HELP odd_labels_total Escaping fodder; help with \\ and\nnewline.
# TYPE odd_labels_total counter
odd_labels_total{k="a\"b\\c\nd"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramInvariants checks the le-schedule invariants on every
// rendered histogram series: buckets cumulative and monotone, +Inf
// equal to _count, _sum the exact sum of observations.
func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("solve_seconds", "", -4, 4, "mode")
	var sums = map[string]float64{}
	var counts = map[string]int64{}
	for i, mode := range []string{"measured", "static", "measured"} {
		h := hv.With(mode)
		for j := 0; j < 10+i; j++ {
			v := float64(j) * 1.7 // 0 (below min bound) .. beyond max bound 16
			h.Observe(v)
			sums[mode] += v
			counts[mode]++
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Parse the series back per mode.
	type hist struct {
		buckets []int64
		inf     int64
		sum     float64
		count   int64
	}
	got := map[string]*hist{}
	at := func(mode string) *hist {
		h, ok := got[mode]
		if !ok {
			h = &hist{}
			got[mode] = h
		}
		return h
	}
	for _, line := range strings.Split(b.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "solve_seconds_bucket{mode="):
			mode := "measured"
			if strings.Contains(line, `"static"`) {
				mode = "static"
			}
			n, _ := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if strings.Contains(line, `le="+Inf"`) {
				at(mode).inf = n
			} else {
				at(mode).buckets = append(at(mode).buckets, n)
			}
		case strings.HasPrefix(line, "solve_seconds_sum{"):
			mode := "measured"
			if strings.Contains(line, `"static"`) {
				mode = "static"
			}
			at(mode).sum, _ = strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		case strings.HasPrefix(line, "solve_seconds_count{"):
			mode := "measured"
			if strings.Contains(line, `"static"`) {
				mode = "static"
			}
			at(mode).count, _ = strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		}
	}
	for mode, h := range got {
		if len(h.buckets) != 9 { // exponents -4..4
			t.Fatalf("%s: %d bounded buckets, want 9", mode, len(h.buckets))
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i] < h.buckets[i-1] {
				t.Errorf("%s: bucket counts not monotone: %v", mode, h.buckets)
			}
		}
		if h.buckets[len(h.buckets)-1] > h.inf {
			t.Errorf("%s: top bounded bucket %d exceeds +Inf %d", mode, h.buckets[len(h.buckets)-1], h.inf)
		}
		if h.inf != counts[mode] || h.count != counts[mode] {
			t.Errorf("%s: +Inf %d / count %d, want %d", mode, h.inf, h.count, counts[mode])
		}
		if math.Abs(h.sum-sums[mode]) > 1e-9 {
			t.Errorf("%s: sum %v, want %v", mode, h.sum, sums[mode])
		}
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d modes, want 2", len(got))
	}
}

// TestBucketIndex pins the pow2 bucket mapping at its edges: exact
// powers of two land in their own bucket (le is inclusive), everything
// at or below the lowest bound lands in bucket 0, and values above the
// top bound fall through to +Inf only.
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v      float64
		minExp int
		maxExp int
		idx    int
		ok     bool
	}{
		{0, -2, 2, 0, true},
		{-5, -2, 2, 0, true},
		{0.25, -2, 2, 0, true},
		{0.26, -2, 2, 1, true},
		{0.5, -2, 2, 1, true},
		{1, -2, 2, 2, true},
		{1.01, -2, 2, 3, true},
		{2, -2, 2, 3, true},
		{4, -2, 2, 4, true},
		{4.01, -2, 2, 0, false},
		{1024, -2, 2, 0, false},
	}
	for _, c := range cases {
		idx, ok := bucketIndex(c.v, c.minExp, c.maxExp)
		if idx != c.idx || ok != c.ok {
			t.Errorf("bucketIndex(%v, %d, %d) = (%d, %v), want (%d, %v)",
				c.v, c.minExp, c.maxExp, idx, ok, c.idx, c.ok)
		}
	}
}

// TestRegistryConcurrent hammers every update path while collections
// run — the -race workout for the registry's locking discipline.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	cv := r.CounterVec("cv_total", "", "k")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", -4, 4)
	hv := r.HistogramVec("hv_seconds", "", -4, 4, "k")
	r.GaugeFunc("gf", "", func() float64 { return float64(c.Value()) })

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := strconv.Itoa(w % 3)
			series := cv.With(label)
			for i := 0; i < iters; i++ {
				c.Inc()
				series.Inc()
				cv.With(label).Add(1) // re-resolution race
				g.Add(1)
				h.Observe(float64(i % 40))
				hv.With(label).Observe(float64(i % 40))
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter %d, want %d", got, workers*iters)
	}
	if got := r.Sum("cv_total", nil); got != 2*workers*iters {
		t.Errorf("cv sum %v, want %d", got, 2*workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Errorf("gauge %v, want %d", got, workers*iters)
	}
	if got := h.s.n.Load(); got != workers*iters {
		t.Errorf("histogram count %d, want %d", got, workers*iters)
	}
}

// TestRegistryNilIsFree pins the disabled path: every operation on the
// nil registry (and the nil handles it returns) is a no-op with zero
// heap allocations — the same contract as the nil *Trace.
func TestRegistryNilIsFree(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("c", "").Inc()
		r.CounterVec("cv", "", "a", "b").With("x", "y").Add(3)
		r.Gauge("g", "").Add(1)
		r.GaugeFunc("gf", "", func() float64 { return 1 })
		r.Histogram("h", "", -2, 2).Observe(0.5)
		r.HistogramVec("hv", "", -2, 2, "a").With("x").Observe(2)
		if r.Sum("c", nil) != 0 {
			t.Error("nil Sum non-zero")
		}
		if err := r.WritePrometheus(nil); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("nil registry path allocates %v per op bundle, want 0", allocs)
	}
}

// TestRegistryReRegister pins idempotent registration and loud
// signature conflicts.
func TestRegistryReRegister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	a.Add(2)
	b := r.Counter("x_total", "help")
	if b.Value() != 2 {
		t.Fatalf("re-registration did not return the existing series: %d", b.Value())
	}
	for name, fn := range map[string]func(){
		"kind":    func() { r.Gauge("x_total", "") },
		"labels":  func() { r.CounterVec("x_total", "", "k") },
		"buckets": func() { r.Histogram("h_seconds", "", -2, 2); r.Histogram("h_seconds", "", -3, 2) },
		"invalid": func() { r.Counter("bad name", "") },
		"le":      func() { r.HistogramVec("h2_seconds", "", -2, 2, "le") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s conflict did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSumMatching pins the label-constrained read-back the stats
// surfaces are built on.
func TestSumMatching(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "", "ep", "code")
	v.With("/a", "200").Add(3)
	v.With("/a", "500").Add(1)
	v.With("/b", "200").Add(10)
	if got := r.Sum("req_total", nil); got != 14 {
		t.Errorf("total %v, want 14", got)
	}
	if got := r.Sum("req_total", map[string]string{"ep": "/a"}); got != 4 {
		t.Errorf("/a %v, want 4", got)
	}
	if got := r.Sum("req_total", map[string]string{"ep": "/a", "code": "200"}); got != 3 {
		t.Errorf("/a 200 %v, want 3", got)
	}
	if got := r.Sum("req_total", map[string]string{"nope": "x"}); got != 0 {
		t.Errorf("unknown label %v, want 0", got)
	}
	if got := r.Sum("missing_total", nil); got != 0 {
		t.Errorf("unknown family %v, want 0", got)
	}
}

// TestObserveBatchMatchesObserve pins the pre-bucketed path against the
// per-sample one: one observeBatch of seeded random samples' bucket
// counts and sum renders byte for byte the exposition of Observe on
// each sample — buckets, +Inf, _sum and _count alike, including samples
// past the top bound. An all-zero batch through a Trace creates no
// series.
func TestObserveBatchMatchesObserve(t *testing.T) {
	const minExp, maxExp = -2, 4
	rng := rand.New(rand.NewSource(7))
	one, batch := NewRegistry(), NewRegistry()
	h := one.HistogramVec("x", "", minExp, maxExp, "name").With("a.b")
	counts := make([]int64, maxExp-minExp+2) // last slot: past the top bound
	var sum float64
	for i := 0; i < 500; i++ {
		v := rng.ExpFloat64() * 4
		h.Observe(v)
		idx, ok := bucketIndex(v, minExp, maxExp)
		if !ok {
			idx = len(counts) - 1
		}
		counts[idx]++
		sum += v
	}
	batch.HistogramVec("x", "", minExp, maxExp, "name").With("a.b").observeBatch(counts, sum)
	var want, got strings.Builder
	if err := one.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if err := batch.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("batch exposition differs:\n--- batch ---\n%s--- per sample ---\n%s", got.String(), want.String())
	}
	if counts[len(counts)-1] == 0 {
		t.Error("no sample exceeded the top bound; the +Inf-only path went untested")
	}

	tr := New(&MemorySink{})
	tr.ObserveBatch("empty", make([]int64, 8), 0)
	if n := len(tr.hists.f.sorted()); n != 0 {
		t.Errorf("all-zero batch created %d series, want 0", n)
	}
}
