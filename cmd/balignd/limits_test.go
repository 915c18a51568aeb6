package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"branchalign/internal/engine"
	"branchalign/internal/interp"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
)

// engineInFlight reads /v1/stats' engine in_flight gauge.
func engineInFlight(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Engine struct {
			InFlight int64 `json:"in_flight"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Engine.InFlight
}

// failsPromptly posts req, expecting a typed error within limit.
func failsPromptly(t *testing.T, ts *httptest.Server, req alignRequest, limit time.Duration) (errorResponse, int) {
	t.Helper()
	start := time.Now()
	body, code := postAlignError(t, ts, req)
	if d := time.Since(start); d > limit {
		t.Fatalf("request took %v, want under %v", d, limit)
	}
	return body, code
}

// TestAlignPoisonedArraySize is the regression test for a declared array
// size no machine can hold. It used to panic inside the leader's Load:
// the client saw EOF, the in-flight entry was never settled, and an
// identical request coalesced onto the dead leader and hung.
func TestAlignPoisonedArraySize(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	ts.Client().Timeout = 10 * time.Second
	req := alignRequest{Source: "global a[4611686018427387904]; func main(x) { return x; }", N: new(int64)}
	for i := 0; i < 2; i++ {
		body, code := failsPromptly(t, ts, req, 5*time.Second)
		if code != http.StatusBadRequest || body.Kind != "bad_request" {
			t.Fatalf("request %d: status %d kind %q (%s), want 400 bad_request", i, code, body.Kind, body.Error)
		}
		if n := engineInFlight(t, ts); n != 0 {
			t.Fatalf("request %d: /v1/stats reports in_flight %d after the request finished", i, n)
		}
	}
}

// TestAlignLoadTimeout: a profiling run that never ends is stopped at the
// server's MaxTimeout through the interpreter's context poll, instead of
// holding its slot for the whole step budget.
func TestAlignLoadTimeout(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{MaxTimeout: 200 * time.Millisecond}))
	defer ts.Close()
	ts.Client().Timeout = 30 * time.Second
	req := alignRequest{Source: "func main(n) { while (1) { } return 0; }", N: new(int64)}
	body, code := failsPromptly(t, ts, req, 10*time.Second)
	if code != http.StatusServiceUnavailable || body.Kind != "timeout" {
		t.Fatalf("status %d kind %q (%s), want 503 timeout", code, body.Kind, body.Error)
	}
	if n := engineInFlight(t, ts); n != 0 {
		t.Fatalf("/v1/stats reports in_flight %d after the request finished", n)
	}
}

// TestAlignStatusForInterpErrors maps the interpreter's budget failures,
// as buildProfile wraps them, and every engine sentinel to its status
// and wire kind. The step
// budget runs here with a small MaxSteps: the daemon's 2^31 is too slow
// to reach in a test.
func TestAlignStatusForInterpErrors(t *testing.T) {
	prog, err := minic.Parse("global a[100]; func main(n) { while (1) { } return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	info, err := minic.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Program(info)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts interp.Options) error {
		_, err := interp.Run(mod, []interp.Input{interp.ScalarInput(0)}, opts)
		if err == nil {
			t.Fatal("run of an endless loop succeeded")
		}
		return fmt.Errorf("profiling run failed: %w", err)
	}
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	for _, c := range []struct {
		name string
		err  error
		code int
		kind string
	}{
		{"step budget", run(interp.Options{MaxSteps: 1000}), http.StatusUnprocessableEntity, "budget_exceeded"},
		{"cell budget", run(interp.Options{MaxCells: 99}), http.StatusRequestEntityTooLarge, "too_large"},
		{"load deadline", run(interp.Options{Context: expired}), http.StatusServiceUnavailable, "timeout"},
		{"static estimate", fmt.Errorf("%w: counts too large", engine.ErrEstimateBudget), http.StatusUnprocessableEntity, "budget_exceeded"},
		{"function blocks", fmt.Errorf("%w: main has too many", engine.ErrFuncTooLarge), http.StatusRequestEntityTooLarge, "too_large"},
		{"engine panic", fmt.Errorf("%w: panic: boom", engine.ErrInternal), http.StatusInternalServerError, "internal"},
		{"no module", fmt.Errorf("%w: load returned none", engine.ErrNoModule), http.StatusBadRequest, "no_module"},
		{"no profile", fmt.Errorf("%w: load returned none", engine.ErrNoProfile), http.StatusBadRequest, "no_profile"},
		{"profile conflict", fmt.Errorf("static excludes data: %w", engine.ErrProfileConflict), http.StatusBadRequest, "profile_conflict"},
		{"unknown algorithm", fmt.Errorf("%w: \"nope\"", engine.ErrUnknownAlgorithm), http.StatusBadRequest, "unknown_algorithm"},
		{"other", errors.New("parsing source: bad"), http.StatusBadRequest, "bad_request"},
	} {
		if code, kind := errorClass(c.err); code != c.code || kind != c.kind {
			t.Errorf("%s (%v): status %d kind %q, want %d %q", c.name, c.err, code, kind, c.code, c.kind)
		}
	}
}
