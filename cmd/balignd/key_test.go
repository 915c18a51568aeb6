package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"branchalign/internal/bench"
	"branchalign/internal/engine"
	"branchalign/internal/testutil"
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
