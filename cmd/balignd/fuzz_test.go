package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"branchalign/internal/check"
	"branchalign/internal/layout"
	"branchalign/internal/staticprof"
	"branchalign/internal/testutil"
)

// FuzzAlignHandler drives /v1/align with arbitrary bodies. Whatever the
// body, the answer is a 200, a 4xx with a typed kind, or a 503
// "timeout": never a 500, a panic or a hang. Every 200's layout passes
// check.Layouts against the program and profile its request names, and
// its penalty is that layout's.
//
// The server's timeouts are short, so a program that never halts ends
// its profiling run quickly with a 503, and a deep Held-Karp or
// kick budget ends in a truncated 200.
//
//	go test -run '^$' -fuzz FuzzAlignHandler -fuzztime 60s ./cmd/balignd/
func FuzzAlignHandler(f *testing.F) {
	for _, tc := range errorKindCases(f) {
		body, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	bounded := sourceRequest(1)
	bounded.Bound = true
	for _, req := range []alignRequest{
		bounded,
		{Bench: "compress", Algorithm: "exttsp", Seed: 2},
		{Source: testutil.BranchySource, ProfileMode: "static", Algorithm: "ap-patch"},
		{Source: "func main(n) { while (n == n) { n = n + 1; } return n; }", N: new(int64)},
		{Bench: "eqntott", Bound: true, HKIterations: 1 << 30, MaxKicks: 3, Trace: true},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"bench":"compress","seed":`))
	f.Add([]byte(`{"source":"func main() { return 0; }"} trailing`))

	const limit = 500 * time.Millisecond
	srv := newServer(serverConfig{Workers: 2, DefaultTimeout: limit, MaxTimeout: limit})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/align", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("no answer a minute after the request (server timeout %v): %.300q", limit, body)
		}

		switch code := rec.Code; {
		case code == http.StatusOK:
			checkServedLayout(t, body, rec.Body.Bytes())
		case code >= 400 && code < 500, code == http.StatusServiceUnavailable:
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("status %d with an untyped body %q: %v", code, rec.Body, err)
			}
			if e.Error == "" || e.Kind == "" || e.Kind == "internal" ||
				(code == http.StatusServiceUnavailable) != (e.Kind == "timeout") {
				t.Fatalf("status %d with error %q, kind %q", code, e.Error, e.Kind)
			}
		default:
			t.Fatalf("status %d for body %.300q: %.300s", code, body, rec.Body)
		}
	})
}

// checkServedLayout loads the program that request names, as the
// server did, finalizes the served orders into a layout and requires
// check.Layouts to pass and the served penalty to be that layout's.
func checkServedLayout(t *testing.T, request, response []byte) {
	t.Helper()
	var req alignRequest
	if err := json.NewDecoder(bytes.NewReader(request)).Decode(&req); err != nil {
		t.Fatalf("200 for an undecodable request: %v", err)
	}
	var res alignResponse
	if err := json.Unmarshal(response, &res); err != nil {
		t.Fatalf("200 body does not decode: %v", err)
	}
	ereq, err := engineRequest(req, time.Minute)
	if err != nil {
		t.Fatalf("200 for a request the server rejects: %v", err)
	}
	mod, prof, err := ereq.Load(nil)
	if err != nil {
		t.Fatalf("200, yet loading the program fails: %v", err)
	}
	if ereq.StaticProfile {
		prof, _ = staticprof.Estimate(mod)
	}
	if len(res.Funcs) != len(mod.Funcs) {
		t.Fatalf("%d funcs served for %d functions", len(res.Funcs), len(mod.Funcs))
	}
	l := &layout.Layout{Funcs: make([]*layout.FuncLayout, len(mod.Funcs))}
	for fi, f := range mod.Funcs {
		l.Funcs[fi] = layout.Finalize(f, prof.Funcs[fi], res.Funcs[fi].Order, ereq.Model)
	}
	if r := check.Layouts(mod, prof, l, ereq.Model); !r.OK() {
		t.Fatalf("served layout fails check.Layouts:\n%s", r)
	}
	if p := int64(layout.ModulePenalty(mod, l, prof, ereq.Model)); p != res.Penalty {
		t.Fatalf("served penalty %d, layout's penalty %d", res.Penalty, p)
	}
}
