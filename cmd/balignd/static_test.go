package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"branchalign/internal/testutil"
)

// postAlignError issues a request expected to fail and decodes the
// structured error body.
func postAlignError(t *testing.T, ts *httptest.Server, req alignRequest) (errorResponse, int) {
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
	if resp.StatusCode == http.StatusOK {
		t.Fatal("request unexpectedly succeeded")
	}
	var out errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("non-200 body is not structured JSON: %v", err)
	}
	return out, resp.StatusCode
}

// TestAlignStaticProfile serves a completely profile-less request: no
// data, no n, no recorded profile — the engine estimates edge
// frequencies from CFG structure alone.
func TestAlignStaticProfile(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	res, code := postAlign(t, ts, alignRequest{
		Source:      testutil.BranchySource,
		ProfileMode: "static",
		Seed:        5,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.ProfileSource != "static" {
		t.Errorf("profile_source = %q, want static", res.ProfileSource)
	}
	if res.Penalty <= 0 || res.OriginalPenalty < res.Penalty {
		t.Fatalf("penalties look wrong: aligned=%d original=%d", res.Penalty, res.OriginalPenalty)
	}
	if len(res.Funcs) == 0 {
		t.Fatal("no per-function stats")
	}

	// A measured request for the same program must report its own source
	// and must not be served the static cache entry.
	mres, code := postAlign(t, ts, sourceRequest(5))
	if code != http.StatusOK {
		t.Fatalf("measured status %d", code)
	}
	if mres.ProfileSource != "measured" {
		t.Errorf("measured profile_source = %q", mres.ProfileSource)
	}
	if mres.CacheHit {
		t.Fatal("measured request hit the static cache entry")
	}

	// Re-issuing the static request hits the cache and stays static.
	again, code := postAlign(t, ts, alignRequest{
		Source:      testutil.BranchySource,
		ProfileMode: "static",
		Seed:        5,
	})
	if code != http.StatusOK {
		t.Fatalf("static re-request status %d", code)
	}
	if !again.CacheHit || again.ProfileSource != "static" {
		t.Errorf("static re-request: cache_hit=%v profile_source=%q, want true/static",
			again.CacheHit, again.ProfileSource)
	}
}

// TestAlignStaticBench runs a bundled benchmark with no dataset at all.
func TestAlignStaticBench(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	res, code := postAlign(t, ts, alignRequest{Bench: "eqntott", ProfileMode: "static", Seed: 2})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.ProfileSource != "static" || res.Penalty <= 0 {
		t.Fatalf("profile_source=%q penalty=%d", res.ProfileSource, res.Penalty)
	}
}

// loopChainSource returns a Mini-C program of len(depths) functions:
// main runs a loop nest depths[0] deep whose body calls the next
// function, which does the same with depths[1], and so on. The static
// estimator multiplies trip counts down the chain, so a few levels carry
// estimated counts far beyond anything a profiling run could reach.
func loopChainSource(depths ...int) string {
	var b strings.Builder
	for fi := len(depths) - 1; fi >= 0; fi-- {
		name := fmt.Sprintf("f%d", fi)
		if fi == 0 {
			name = "main"
		}
		fmt.Fprintf(&b, "func %s(n) {\n\tvar s = 0;\n", name)
		for i := 0; i < depths[fi]; i++ {
			fmt.Fprintf(&b, "\tvar i%d;\n", i)
		}
		for i := 0; i < depths[fi]; i++ {
			fmt.Fprintf(&b, "\tfor (i%d = 0; i%d < n; i%d = i%d + 1) {\n", i, i, i, i)
		}
		if fi == len(depths)-1 {
			b.WriteString("\ts = s + 1;\n")
		} else {
			fmt.Fprintf(&b, "\ts = s + f%d(n);\n", fi+1)
		}
		b.WriteString(strings.Repeat("\t}\n", depths[fi]))
		b.WriteString("\treturn s;\n}\n")
	}
	return b.String()
}

// TestAlignErrorKinds pins the machine-readable error discriminators
// clients switch on.
func TestAlignErrorKinds(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	// A recorded profile whose edge counts would overflow the cost
	// arithmetic (count × penalty wraps int64).
	inflated, err := testutil.InflatedBranchyProfile(8, 1, 1<<61)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		req      alignRequest
		wantCode int
		wantKind string
	}{
		{
			name:     "unknown profile_mode",
			req:      alignRequest{Source: testutil.BranchySource, ProfileMode: "oracle"},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "static with inline data",
			req:      alignRequest{Source: testutil.BranchySource, ProfileMode: "static", Data: testData(8, 1)},
			wantCode: http.StatusBadRequest,
			wantKind: "profile_conflict",
		},
		{
			name: "static with recorded profile",
			req: alignRequest{
				Source:      testutil.BranchySource,
				ProfileMode: "static",
				Profile:     json.RawMessage(`{"funcs":[]}`),
			},
			wantCode: http.StatusBadRequest,
			wantKind: "profile_conflict",
		},
		{
			name:     "no program",
			req:      alignRequest{ProfileMode: "static"},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "unknown bench",
			req:      alignRequest{Bench: "nonesuch", ProfileMode: "static"},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			// Each array is within the parser's cap; together they
			// exceed the interpreter's cell budget, which is checked
			// before anything is allocated.
			name: "arrays over the cell budget",
			req: alignRequest{
				Source: "global a[16777216]; global b[16777216]; global c[16777216];\nfunc main(n) { return n; }",
				N:      new(int64),
			},
			wantCode: http.StatusRequestEntityTooLarge,
			wantKind: "too_large",
		},
		{
			name:     "profile counts over the cap",
			req:      alignRequest{Source: testutil.BranchySource, Data: testData(8, 1), Profile: inflated},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			// The innermost function's estimated counts sum above
			// interp.MaxFuncCount (2^44): a static estimate is not
			// clamped, so the request fails.
			name:     "static estimate over the count cap",
			req:      alignRequest{Source: loopChainSource(4, 4, 4, 4, 6), ProfileMode: "static"},
			wantCode: http.StatusUnprocessableEntity,
			wantKind: "budget_exceeded",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, code := postAlignError(t, ts, tc.req)
			if code != tc.wantCode {
				t.Errorf("status = %d, want %d", code, tc.wantCode)
			}
			if body.Kind != tc.wantKind {
				t.Errorf("kind = %q (error %q), want %q", body.Kind, body.Error, tc.wantKind)
			}
			if body.Error == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestNotFoundIsJSON: unknown routes return the structured body too,
// not net/http's plain-text page.
func TestNotFoundIsJSON(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("404 body is not JSON: %v", err)
	}
	if body.Kind != "not_found" {
		t.Errorf("kind = %q, want not_found", body.Kind)
	}
}
