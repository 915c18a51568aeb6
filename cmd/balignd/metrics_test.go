package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scrapeMetrics fetches /metrics and parses it into sample name ->
// value, keyed by the full series line prefix (name plus label set).
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumSamples adds every sample whose series matches name plus all the
// given label fragments (e.g. `endpoint="/v1/align"`).
func sumSamples(samples map[string]float64, name string, frags ...string) float64 {
	var sum float64
	for series, v := range samples {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		ok := true
		for _, f := range frags {
			if !strings.Contains(series, f) {
				ok = false
				break
			}
		}
		if ok {
			sum += v
		}
	}
	return sum
}

// TestMetricsFamilies pins the exposition's breadth: after one align
// request the scrape must carry the HTTP, engine-cache, work-pool and
// solve-latency families with live values.
func TestMetricsFamilies(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	if _, code := postAlign(t, ts, sourceRequest(11)); code != http.StatusOK {
		t.Fatalf("align status %d", code)
	}
	samples := scrapeMetrics(t, ts)

	families := []string{
		"balignd_http_requests_total",
		"balignd_http_request_duration_seconds",
		"balignd_http_inflight_requests",
		"balignd_sheds_total",
		"balignd_align_errors_total",
		"balignd_align_truncated_total",
		"engine_requests_total",
		"engine_cache_hits_total",
		"engine_cache_misses_total",
		"engine_cache_evictions_total",
		"engine_cache_entries",
		"engine_load_cache_hits_total",
		"engine_load_cache_entries",
		"engine_coalesced_total",
		"engine_solves_total",
		"engine_truncated_total",
		"engine_errors_total",
		"engine_in_flight",
		"engine_solve_duration_seconds",
		"work_pool_capacity",
		"work_pool_active_tasks",
		"work_pool_queue_depth",
		"work_pool_queue_wait_seconds",
	}
	for _, fam := range families {
		found := false
		for series := range samples {
			if series == fam || strings.HasPrefix(series, fam+"{") || strings.HasPrefix(series, fam+"_") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	if n := sumSamples(samples, "balignd_http_requests_total", `endpoint="/v1/align"`, `code="200"`); n != 1 {
		t.Errorf("align 200 counter = %v, want 1", n)
	}
	if n := sumSamples(samples, "engine_solves_total"); n != 1 {
		t.Errorf("engine_solves_total = %v, want 1", n)
	}
	if n := sumSamples(samples, "engine_solve_duration_seconds_count", `cache="miss"`); n != 1 {
		t.Errorf("solve duration miss count = %v, want 1", n)
	}
	if n := sumSamples(samples, "work_pool_capacity"); n <= 0 {
		t.Errorf("work_pool_capacity = %v, want > 0", n)
	}
}

// TestStatsMatchesMetrics is the drift pin for the two read surfaces:
// after mixed traffic (success, cache hit, load-cache hit, bad request,
// shed), every
// number /v1/stats reports must equal what /metrics exposes, because
// both read the same registry cells.
func TestStatsMatchesMetrics(t *testing.T) {
	s := newServer(serverConfig{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if _, code := postAlign(t, ts, sourceRequest(21)); code != http.StatusOK {
		t.Fatalf("align status %d", code)
	}
	if _, code := postAlign(t, ts, sourceRequest(21)); code != http.StatusOK { // cache hit
		t.Fatalf("align status %d", code)
	}
	// The same program at two more seeds: the first retains its load,
	// the second reuses it.
	for _, seed := range []int64{23, 24} {
		if _, code := postAlign(t, ts, sourceRequest(seed)); code != http.StatusOK {
			t.Fatalf("align status %d", code)
		}
	}
	if _, code := postAlign(t, ts, alignRequest{Bench: "no-such"}); code != http.StatusBadRequest {
		t.Fatalf("bad request status %d", code)
	}
	// Deterministic shed: fill the in-flight slots directly.
	for i := 0; i < s.cfg.MaxInflight; i++ {
		s.inflight <- struct{}{}
	}
	if _, code := postAlign(t, ts, sourceRequest(22)); code != http.StatusTooManyRequests {
		t.Fatalf("expected shed, got %d", code)
	}
	for i := 0; i < s.cfg.MaxInflight; i++ {
		<-s.inflight
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := scrapeMetrics(t, ts)

	// Server block vs HTTP families. The /v1/stats and /metrics calls
	// themselves are not align traffic, so the align counters are at
	// rest by the time of the scrape.
	checks := []struct {
		name string
		got  int64
		want float64
	}{
		{"server.requests", st.Server.Requests, sumSamples(samples, "balignd_http_requests_total", `endpoint="/v1/align"`)},
		{"server.shed", st.Server.Shed, sumSamples(samples, "balignd_sheds_total")},
		{"server.errors", st.Server.Errors, sumSamples(samples, "balignd_align_errors_total")},
		{"server.truncated", st.Server.Truncated, sumSamples(samples, "balignd_align_truncated_total")},
		{"engine.requests", st.Engine.Requests, sumSamples(samples, "engine_requests_total")},
		{"engine.cache_hits", st.Engine.CacheHits, sumSamples(samples, "engine_cache_hits_total")},
		{"engine.load_hits", st.Engine.LoadHits, sumSamples(samples, "engine_load_cache_hits_total")},
		{"engine.coalesced", st.Engine.Coalesced, sumSamples(samples, "engine_coalesced_total")},
		{"engine.solved", st.Engine.Solved, sumSamples(samples, "engine_solves_total")},
		{"engine.truncated", st.Engine.Truncated, sumSamples(samples, "engine_truncated_total")},
		{"engine.errors", st.Engine.Errors, sumSamples(samples, "engine_errors_total")},
		{"engine.in_flight", st.Engine.InFlight, sumSamples(samples, "engine_in_flight")},
	}
	for _, c := range checks {
		if float64(c.got) != c.want {
			t.Errorf("%s: stats=%d metrics=%v", c.name, c.got, c.want)
		}
	}
	if st.Server.Requests != 6 || st.Server.Shed != 1 || st.Server.Errors != 1 {
		t.Errorf("unexpected traffic tallies: %+v", st.Server)
	}
	if st.Engine.CacheHits != 1 || st.Engine.LoadHits != 1 {
		t.Errorf("engine cache hits %d and load hits %d, want 1 each", st.Engine.CacheHits, st.Engine.LoadHits)
	}
}

// TestReadyzSplitsFromHealthz pins probe correctness under drain: the
// moment drain begins /v1/readyz turns 503 while an align request
// already in flight completes normally and /v1/healthz stays 200.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	s := newServer(serverConfig{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookAligning = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz %d before drain, want 200", code)
	}

	type result struct {
		res  *alignResponse
		code int
	}
	done := make(chan result, 1)
	go func() {
		res, code := postAlign(t, ts, sourceRequest(31))
		done <- result{res, code}
	}()
	<-entered // the align request is now in flight

	s.startDrain()
	if code := get("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d during drain, want 503", code)
	}
	if code := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz %d during drain, want 200", code)
	}

	close(release)
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight align finished %d during drain, want 200", r.code)
	}
	if r.res == nil || r.res.Penalty <= 0 {
		t.Fatalf("in-flight align returned bad result during drain: %+v", r.res)
	}
	// Drain is sticky.
	if code := get("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d after drain began, want 503", code)
	}
}

// TestRequestIDs pins the ID plumbing: every response carries
// X-Request-Id, distinct requests get distinct IDs, a sane inbound ID
// is honored, and with trace:true the same ID appears as the root
// span's request_id attribute.
func TestRequestIDs(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id1 := resp.Header.Get("X-Request-Id")
	if id1 == "" {
		t.Fatal("no X-Request-Id assigned")
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id2 := resp.Header.Get("X-Request-Id"); id2 == "" || id2 == id1 {
		t.Fatalf("second request id %q not distinct from %q", id2, id1)
	}

	// Inbound ID round-trips.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-Id", "upstream-7")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "upstream-7" {
		t.Fatalf("inbound id not honored: %q", got)
	}

	// A hostile inbound ID (header injection fodder) is replaced.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-Id", `evil"id`)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == `evil"id` || got == "" {
		t.Fatalf("hostile id echoed back: %q", got)
	}

	// The ID lands in the solver trace.
	body, _ := json.Marshal(func() alignRequest {
		r := sourceRequest(41)
		r.Trace = true
		return r
	}())
	areq, _ := http.NewRequest("POST", ts.URL+"/v1/align", bytes.NewReader(body))
	areq.Header.Set("X-Request-Id", "op-trace-1")
	aresp, err := ts.Client().Do(areq)
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var out alignResponse
	if err := json.NewDecoder(aresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range out.TraceEvents {
		if e.Type == "span" && e.Name == "balignd.align" && e.Str("request_id") == "op-trace-1" {
			found = true
		}
	}
	if !found {
		t.Fatal("request_id attr missing from balignd.align root span")
	}
}

// TestAccessLog pins the structured access line: one JSON object per
// request with the fields an operator joins on.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	ts := httptest.NewServer(newServer(serverConfig{LogWriter: &buf}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")

	var line struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Bytes     int64   `json:"bytes"`
		DurMS     float64 `json:"dur_ms"`
		Remote    string  `json:"remote"`
	}
	found := false
	for _, raw := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(raw) == 0 {
			continue
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("access log line is not JSON: %s (%v)", raw, err)
		}
		if line.Msg == "access" && line.Path == "/v1/healthz" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no access line for /v1/healthz in log:\n%s", buf.Bytes())
	}
	if line.RequestID != id {
		t.Errorf("log request_id %q != header %q", line.RequestID, id)
	}
	if line.Method != "GET" || line.Status != http.StatusOK || line.Bytes <= 0 || line.DurMS < 0 || line.Remote == "" {
		t.Errorf("access line incomplete: %+v", line)
	}
}

// TestPprofGate pins that the profiling endpoints exist only behind
// -pprof.
func TestPprofGate(t *testing.T) {
	off := httptest.NewServer(newServer(serverConfig{}))
	defer off.Close()
	resp, err := off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(newServer(serverConfig{Pprof: true}))
	defer on.Close()
	resp, err = on.Client().Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on: status %d, want 200", resp.StatusCode)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// BenchmarkMiddleware measures the per-request cost of the full
// observability wrapper (ID assignment, metrics, access log to a
// discarded writer) on the cheapest endpoint, so the overhead is the
// measurement rather than the solve.
func BenchmarkMiddleware(b *testing.B) {
	s := newServer(serverConfig{})
	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
	}
}

// TestMiddlewareRecoversPanic: a panic outside the engine — here an
// inner handler that panics where decoding would run — is answered with
// a 500 {"kind":"internal"} body, counted as a failed align request and
// as a 500 in the request counter, logged, and leaves the in-flight
// gauge at zero.
func TestMiddlewareRecoversPanic(t *testing.T) {
	var buf syncBuffer
	s := newServer(serverConfig{LogWriter: &buf})
	s.handler = newMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("decode blew up")
	}), s.reg, s.logger, s.alignErrors)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/align", "application/json", strings.NewReader(`{"bench":"compress"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != "internal" || !strings.Contains(body.Error, "decode blew up") {
		t.Errorf("body %+v, want kind internal naming the panic", body)
	}
	if got := s.alignErrors.Value(); got != 1 {
		t.Errorf("balignd_align_errors_total = %d, want 1", got)
	}
	if got := s.reg.Sum("balignd_http_requests_total", map[string]string{"endpoint": "/v1/align", "code": "500"}); got != 1 {
		t.Errorf("balignd_http_requests_total{/v1/align,500} = %v, want 1", got)
	}
	if got := s.reg.Sum("balignd_http_inflight_requests", nil); got != 0 {
		t.Errorf("in-flight gauge = %v after the panic, want 0", got)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"msg":"panic"`)) {
		t.Errorf("no panic line in log:\n%s", buf.Bytes())
	}
}
