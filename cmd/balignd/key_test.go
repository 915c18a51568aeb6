package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"branchalign/internal/align"
	"branchalign/internal/bench"
	"branchalign/internal/check"
	"branchalign/internal/engine"
	"branchalign/internal/layout"
	"branchalign/internal/testutil"
	"branchalign/internal/tsp"
)

// requestKey is the engine key balignd derives for req.
func requestKey(t *testing.T, req alignRequest) engine.Key {
	t.Helper()
	ereq, err := engineRequest(req, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return ereq.Key()
}

// TestRequestKeyInputs pins balignd's canonical inputs: every field that
// can change the served layout changes the engine key, fields that only
// change when or how the answer arrives do not, and equivalent spellings
// of one bench request share an entry.
func TestRequestKeyInputs(t *testing.T) {
	n := int64(8)
	profile := json.RawMessage(`{"funcs":[]}`)
	benchReq := alignRequest{Bench: "compress"}
	sourceReq := alignRequest{Source: testutil.BranchySource, Data: testData(8, 1)}

	differ := []struct {
		name string
		a, b alignRequest
	}{
		{"bench", benchReq, alignRequest{Bench: "eqntott"}},
		{"dataset", benchReq, alignRequest{Bench: "compress", DataSet: "mov"}},
		{"source", sourceReq, alignRequest{Source: testutil.BranchySource + " ", Data: sourceReq.Data}},
		{"data", sourceReq, alignRequest{Source: sourceReq.Source, Data: testData(8, 2)}},
		{"n", sourceReq, alignRequest{Source: sourceReq.Source, Data: sourceReq.Data, N: &n}},
		{"profile bytes", sourceReq, alignRequest{Source: sourceReq.Source, Data: sourceReq.Data, Profile: profile}},
		{"bench profile bytes", alignRequest{Bench: "compress", Profile: profile}, alignRequest{Bench: "compress", Profile: json.RawMessage(`{"funcs": []}`)}},
		{"profile_mode", alignRequest{Source: sourceReq.Source}, alignRequest{Source: sourceReq.Source, ProfileMode: "static"}},
		{"bench vs source", benchReq, alignRequest{Source: bench.Compress().Source, Data: sourceReq.Data}},
		{"model", benchReq, alignRequest{Bench: "compress", Model: "deep"}},
		{"algorithm", benchReq, alignRequest{Bench: "compress", Algorithm: "exttsp"}},
		{"seed", benchReq, alignRequest{Bench: "compress", Seed: 1}},
		{"max_kicks", benchReq, alignRequest{Bench: "compress", MaxKicks: 3}},
		{"bound", benchReq, alignRequest{Bench: "compress", Bound: true}},
		{"hk_iterations", benchReq, alignRequest{Bench: "compress", HKIterations: 10}},
	}
	for _, tc := range differ {
		if requestKey(t, tc.a) == requestKey(t, tc.b) {
			t.Errorf("%s: requests share a key", tc.name)
		}
	}

	same := []struct {
		name string
		a, b alignRequest
	}{
		{"timeout_ms", benchReq, alignRequest{Bench: "compress", TimeoutMS: 5}},
		{"parallelism", benchReq, alignRequest{Bench: "compress", Parallelism: 4}},
		{"trace", benchReq, alignRequest{Bench: "compress", Trace: true}},
		{"default dataset", benchReq, alignRequest{Bench: "compress", DataSet: bench.Compress().DataSets[0].Name}},
		{"bench abbreviation", benchReq, alignRequest{Bench: bench.Compress().Abbr}},
		{"default model", benchReq, alignRequest{Bench: "compress", Model: "alpha21164"}},
		{"default algorithm", benchReq, alignRequest{Bench: "compress", Algorithm: "tsp"}},
		{"static ignores dataset", alignRequest{Bench: "compress", ProfileMode: "static"},
			alignRequest{Bench: "compress", DataSet: "mov", ProfileMode: "static"}},
	}
	for _, tc := range same {
		if requestKey(t, tc.a) != requestKey(t, tc.b) {
			t.Errorf("%s: requests got different keys", tc.name)
		}
	}
}

// TestProgramInputsInjective: moving bytes between fields, or between a
// bench request and a source request, never yields the same image.
func TestProgramInputsInjective(t *testing.T) {
	n := int64(0)
	images := map[string]*program{
		`source "ab"`:              {source: "ab"},
		`source "a" + profile "b"`: {source: "a", profile: json.RawMessage("b")},
		`source "ab" + data [0]`:   {source: "ab", data: []int64{0}},
		`source "ab" + n 0`:        {source: "ab", n: &n},
		`bench "a" + dataset "b"`:  {bench: &bench.Benchmark{Name: "a"}, dataset: &bench.DataSet{Name: "b"}},
		`bench "ab"`:               {bench: &bench.Benchmark{Name: "ab"}},
		`bench "a" + profile "b"`:  {bench: &bench.Benchmark{Name: "a"}, profile: json.RawMessage("b")},
	}
	seen := map[string]string{}
	for name, p := range images {
		img := string(p.inputs())
		if prev, dup := seen[img]; dup {
			t.Errorf("%s and %s share an inputs image", name, prev)
		}
		seen[img] = name
	}
}

// TestAlignRepeatIsCacheHit: repeating a measured bench request and a
// source+data request serves each from the cache, with identical funcs.
func TestAlignRepeatIsCacheHit(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	for name, req := range map[string]alignRequest{
		"bench":  {Bench: "eqntott", DataSet: "ip", Seed: 3},
		"source": sourceRequest(6),
	} {
		first, code := postAlign(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		again, code := postAlign(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("%s: repeat status %d", name, code)
		}
		if first.CacheHit || !again.CacheHit {
			t.Errorf("%s: cache_hit first=%v repeat=%v, want false then true", name, first.CacheHit, again.CacheHit)
		}
		if fmt.Sprint(first.Funcs) != fmt.Sprint(again.Funcs) {
			t.Errorf("%s: cached funcs differ from the solved ones", name)
		}
	}
}

// postAlignBody posts req and returns the status and the response body
// with its one wall-clock field, elapsed_ms, dropped. The remaining
// fields are re-encoded verbatim in key order, so two bodies compare
// byte for byte.
func postAlignBody(t *testing.T, ts *httptest.Server, req alignRequest) (int, []byte) {
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
	var fields map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "elapsed_ms")
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestAlignBoundIsFunctionOfRequest: a bounded response depends on the
// request alone. A fresh server and one that first served the same
// program under seeds 2–5 answer the same request, at the default
// Held-Karp depth, with the same bytes, and every function's served
// bound sits between its AP bound and its tour cost.
func TestAlignBoundIsFunctionOfRequest(t *testing.T) {
	req := alignRequest{Bench: "eqntott", Seed: 1, Bound: true}

	cold := httptest.NewServer(newServer(serverConfig{}))
	defer cold.Close()
	code, want := postAlignBody(t, cold, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, want)
	}

	used := httptest.NewServer(newServer(serverConfig{}))
	defer used.Close()
	for seed := int64(2); seed <= 5; seed++ {
		r := req
		r.Seed = seed
		if code, body := postAlignBody(t, used, r); code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, code, body)
		}
	}
	code, got := postAlignBody(t, used, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response after seeds 2–5 differs from a fresh server's:\n got %s\nwant %s", got, want)
	}

	var res alignResponse
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if res.CacheHit || res.Truncated {
		t.Fatalf("cache_hit=%v truncated=%v, want a fresh full solve", res.CacheHit, res.Truncated)
	}
	ereq, err := engineRequest(req, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	mod, prof, err := ereq.Load(nil)
	if err != nil {
		t.Fatal(err)
	}
	for fi, fs := range res.Funcs {
		mat := align.BuildSparseMatrix(mod.Funcs[fi], prof.Funcs[fi], ereq.Model, nil)
		ap := tsp.AssignmentBound(mat)
		tour := tsp.CycleCost(mat, tsp.Tour(fs.Order))
		if r := check.BoundChain(fs.Name, ap, layout.Cost(fs.Bound), tour); len(r.Findings) != 0 {
			t.Errorf("AP ≤ HK ≤ tour broken:\n%s", r)
		}
	}
}
