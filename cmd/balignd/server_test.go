package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"branchalign/internal/obs"
	"branchalign/internal/testutil"
)

func testData(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1000)
	}
	return out
}

func postAlign(t *testing.T, ts *httptest.Server, req alignRequest) (*alignResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/align", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out alignResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func sourceRequest(seed int64) alignRequest {
	return alignRequest{
		Source: testutil.BranchySource,
		Data:   testData(400, 7),
		Seed:   seed,
	}
}

func TestAlignEndpoint(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	req := sourceRequest(1)
	req.Bound = true
	req.HKIterations = 300
	res, code := postAlign(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.Truncated {
		t.Fatal("unbudgeted request truncated")
	}
	if res.Penalty <= 0 || res.OriginalPenalty < res.Penalty {
		t.Fatalf("penalties look wrong: aligned=%d original=%d", res.Penalty, res.OriginalPenalty)
	}
	if res.Bound <= 0 || res.Bound > res.Penalty {
		t.Fatalf("bound %d outside (0, %d]", res.Bound, res.Penalty)
	}
	if len(res.Funcs) == 0 {
		t.Fatal("no per-function stats")
	}
	for _, f := range res.Funcs {
		if f.Cities > 1 && len(f.Order) != f.Cities {
			t.Fatalf("func %s: order %v does not cover %d blocks", f.Name, f.Order, f.Cities)
		}
	}

	// Identical request: served from cache, same answer.
	again, _ := postAlign(t, ts, req)
	if !again.CacheHit {
		t.Fatal("identical request missed the cache")
	}
	if again.Penalty != res.Penalty {
		t.Fatalf("cached penalty %d != original %d", again.Penalty, res.Penalty)
	}
}

func TestAlignBenchRequest(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	res, code := postAlign(t, ts, alignRequest{Bench: "compress"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.Penalty <= 0 || res.Penalty > res.OriginalPenalty {
		t.Fatalf("penalties look wrong: %+v", res)
	}
}

func TestAlignTraceEvents(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	req := sourceRequest(2)
	req.Trace = true
	res, code := postAlign(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(res.TraceEvents) == 0 {
		t.Fatal("trace:true returned no events")
	}
	spans := map[string]obs.Event{}
	for _, e := range res.TraceEvents {
		if e.Type == "span" {
			spans[e.Name] = e
		}
	}
	if _, ok := spans["align.func"]; !ok {
		t.Fatal("trace has no align.func span")
	}
	root, load := spans["balignd.align"], spans["engine.load"]
	if root.Str("cache") != "miss" {
		t.Errorf("root span cache=%q, want miss", root.Str("cache"))
	}
	if load.Parent != root.ID || load.Str("input") != "source" || load.Str("profile") != "run" || load.Int("steps") <= 0 {
		t.Errorf("engine.load span %+v: want a child of balignd.align with input=source, profile=run, steps>0", load)
	}

	// The repeat is a hit: the root says so, and nothing was loaded or
	// solved under it.
	res, code = postAlign(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	hit := false
	for _, e := range res.TraceEvents {
		switch {
		case e.Type != "span":
		case e.Name == "balignd.align":
			hit = e.Str("cache") == "hit"
		case e.Name == "engine.load", e.Name == "align.func":
			t.Errorf("cache hit recorded a %s span", e.Name)
		}
	}
	if !hit {
		t.Error("repeat's root span lacks cache=hit")
	}
}

// TestAlignBuildsEachMatrixOnce: a traced bound request builds each
// function's DTSP matrix exactly once, shared by the solve and the bound
// under tsp, and traced on the bound path under exttsp.
func TestAlignBuildsEachMatrixOnce(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	for _, alg := range []string{"tsp", "exttsp"} {
		req := alignRequest{Bench: "compress", Algorithm: alg, Bound: true, HKIterations: 50, Trace: true}
		res, code := postAlign(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", alg, code)
		}
		if len(res.Funcs) < 2 {
			t.Fatalf("%s: %d functions, want a multi-function program", alg, len(res.Funcs))
		}
		builds := map[string]int{}
		for _, e := range res.TraceEvents {
			if e.Type == "span" && e.Name == "align.build_matrix" {
				builds[e.Str("func")]++
			}
		}
		for _, f := range res.Funcs {
			if builds[f.Name] != 1 {
				t.Errorf("%s: func %s has %d align.build_matrix spans, want 1", alg, f.Name, builds[f.Name])
			}
			delete(builds, f.Name)
		}
		for name, n := range builds {
			t.Errorf("%s: %d align.build_matrix spans for unknown func %q", alg, n, name)
		}
	}
}

func TestAlignRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	for name, req := range map[string]alignRequest{
		"empty":       {},
		"unknown":     {Bench: "no-such-benchmark"},
		"both":        {Bench: "compress", Source: "int main() { return 0; }"},
		"bad model":   {Bench: "compress", Model: "pentium-pro"},
		"parse error": {Source: "int main( {"},
	} {
		if _, code := postAlign(t, ts, req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/align", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestAlignDeadlineTruncates(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	// compress's profiling run alone takes well over 1ms and is not
	// cancellable, so the solver always starts with the deadline already
	// spent — deterministic truncation (its main function is above the
	// exact-DP threshold, so the budgeted local-search path runs).
	req := alignRequest{Bench: "compress", TimeoutMS: 1}
	res, code := postAlign(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("deadline hit should still answer 200, got %d", code)
	}
	if !res.Truncated {
		t.Fatal("1ms deadline did not truncate")
	}
	if res.Penalty <= 0 {
		t.Fatalf("truncated result has no valid penalty: %+v", res)
	}
}

func TestAlignShedsAtCapacity(t *testing.T) {
	s := newServer(serverConfig{MaxInflight: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Fill the only slot directly: deterministic, no timing games.
	s.inflight <- struct{}{}
	_, code := postAlign(t, ts, sourceRequest(4))
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	<-s.inflight

	// Health and stats must not be subject to shedding.
	for _, path := range []string{"/v1/healthz", "/v1/stats"} {
		s.inflight <- struct{}{}
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		<-s.inflight
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d while at capacity", path, resp.StatusCode)
		}
	}
}

// TestAlignConcurrentMixedDeadlines is the server's race-detector
// workout: 32 concurrent requests with wildly different deadlines and
// seeds while a prober hammers /v1/healthz throughout.
func TestAlignConcurrentMixedDeadlines(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{MaxInflight: 32}))
	defer ts.Close()

	stop := make(chan struct{})
	var probes sync.WaitGroup
	probes.Add(1)
	go func() {
		defer probes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("healthz %d under load", resp.StatusCode)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	timeouts := []int64{1, 5, 50, 0} // ms; 0 = server default (no truncation expected)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := sourceRequest(int64(i % 5))
			req.TimeoutMS = timeouts[i%len(timeouts)]
			req.Bound = i%4 == 0
			req.HKIterations = 100
			res, code := postAlign(t, ts, req)
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
				return
			}
			if res.Penalty <= 0 {
				t.Errorf("request %d: bad penalty %d", i, res.Penalty)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	probes.Wait()

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Server struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"server"`
		Engine struct {
			Requests int64 `json:"requests"`
			InFlight int64 `json:"in_flight"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Server.Requests < 32 {
		t.Fatalf("server saw %d requests, expected >= 32", st.Server.Requests)
	}
	if st.Server.Errors != 0 {
		t.Fatalf("server reported %d errors", st.Server.Errors)
	}
	if st.Engine.InFlight != 0 {
		t.Fatalf("engine still reports %d in-flight after drain", st.Engine.InFlight)
	}
}

// TestAlignParallelismBitIdentical pins the wire contract of the
// "parallelism" field: it changes only wall-clock, so a result solved
// sequentially is a cache hit for a parallel request, with identical
// penalties and layouts.
func TestAlignParallelismBitIdentical(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{Workers: 2}))
	defer ts.Close()

	seq, code := postAlign(t, ts, sourceRequest(5))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	par := sourceRequest(5)
	par.Parallelism = 4
	res, code := postAlign(t, ts, par)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !res.CacheHit {
		t.Fatal("parallel request missed the cache entry solved sequentially")
	}
	if res.Penalty != seq.Penalty || res.OriginalPenalty != seq.OriginalPenalty {
		t.Fatalf("parallelism changed the answer: %d vs %d", res.Penalty, seq.Penalty)
	}
	for i, f := range res.Funcs {
		if fmt.Sprint(f.Order) != fmt.Sprint(seq.Funcs[i].Order) {
			t.Fatalf("func %s: layout differs across parallelism settings", f.Name)
		}
	}
}

// TestStatsReportsPool pins that /v1/stats surfaces the engine pool's
// configured size and in-flight run gauge.
func TestStatsReportsPool(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{Workers: 3}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Engine struct {
			Workers      int    `json:"workers"`
			InFlightRuns *int64 `json:"in_flight_runs"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Workers != 3 {
		t.Fatalf("stats report %d workers, want 3", st.Engine.Workers)
	}
	if st.Engine.InFlightRuns == nil || *st.Engine.InFlightRuns != 0 {
		t.Fatalf("idle server should report in_flight_runs 0, got %v", st.Engine.InFlightRuns)
	}
}

// TestRunDrainsOnSIGTERM exercises the real main loop: run() must come
// back nil (clean drain) after the process receives SIGTERM.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "localhost:0", "-drain", "5s"})
	}()
	// Give the listener a moment to come up, then deliver the signal the
	// way an init system would.
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain within 10s of SIGTERM")
	}
}

func TestMainUsageSmoke(t *testing.T) {
	// A config with every default exercised end to end once.
	cfg := serverConfig{}.withDefaults()
	if cfg.MaxInflight <= 0 || cfg.DefaultTimeout <= 0 || cfg.MaxTimeout <= 0 {
		t.Fatalf("defaults incomplete: %+v", cfg)
	}
	_ = fmt.Sprintf("%+v", cfg)
}
