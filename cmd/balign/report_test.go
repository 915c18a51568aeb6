package main

import (
	"strings"
	"testing"

	"branchalign/internal/obs"
)

// span builds a minimal span event the way a JSON round-trip would
// deliver it (numbers as float64), so renderReport's attr decoding is
// exercised the same way `report -in` exercises it.
func span(name string, attrs map[string]any) obs.Event {
	return obs.Event{Type: "span", Name: name, Attrs: attrs}
}

func TestRenderReportJoinsSolveAndBound(t *testing.T) {
	events := []obs.Event{
		span("align.func", map[string]any{
			"func": "hot", "cities": float64(20), "cost": float64(1000), "exact": false,
			"runs": float64(10), "runs_at_best": float64(3), "iter_best": float64(2),
			"moves_tried": float64(500), "moves_accepted": float64(40),
		}),
		span("align.hk", map[string]any{"func": "hot", "bound": float64(900)}),
		span("align.func", map[string]any{
			"func": "cold", "cities": float64(5), "cost": float64(10), "exact": true,
			"runs": float64(1), "runs_at_best": float64(1),
		}),
		span("align.hk", map[string]any{"func": "cold", "bound": float64(10)}),
		// Unrelated events must be ignored.
		span("tsp.run", map[string]any{"cost": float64(7)}),
		{Type: "counter", Name: "tsp.kicks", Count: 3},
	}
	out := renderReport(events)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header, rule, two functions, total
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// Ordered by descending cost: hot before cold.
	if !strings.Contains(lines[2], "hot") || !strings.Contains(lines[3], "cold") {
		t.Errorf("rows not ordered by cost:\n%s", out)
	}
	if !strings.Contains(lines[2], "10.00") {
		t.Errorf("hot gap (1000 vs 900) should render 10.00:\n%s", out)
	}
	if !strings.Contains(lines[3], "0.00") {
		t.Errorf("cold gap should be 0.00:\n%s", out)
	}
	if !strings.Contains(lines[4], "total (2)") || !strings.Contains(lines[4], "1010") ||
		!strings.Contains(lines[4], "910") {
		t.Errorf("total row wrong:\n%s", out)
	}
}

func TestRenderReportMissingBound(t *testing.T) {
	out := renderReport([]obs.Event{
		span("align.func", map[string]any{"func": "f", "cities": float64(4), "cost": float64(5)}),
	})
	if !strings.Contains(out, "-") {
		t.Errorf("missing bound should render as '-':\n%s", out)
	}
	if empty := renderReport(nil); !strings.Contains(empty, "no align.func") {
		t.Errorf("empty trace should explain itself, got:\n%s", empty)
	}
}

// TestSolveMS pins the solve ms cell: a recorded 0 µs (a sub-microsecond
// solve, whose dur_us the JSON omits) renders as 0.00 like any other
// duration.
func TestSolveMS(t *testing.T) {
	for _, tc := range []struct {
		durUS int64
		want  string
	}{
		{0, "0.00"},
		{1, "0.00"},
		{1500, "1.50"},
	} {
		if got := solveMS(tc.durUS); got != tc.want {
			t.Errorf("solveMS(%d) = %q, want %q", tc.durUS, got, tc.want)
		}
	}
}

// TestRenderReportRequestID pins the daemon-trace affordance: when the
// root span carries a request_id attr (stamped by balignd's middleware),
// the report leads with a "request id:" header matching it; CLI-recorded
// traces without the attr render no header.
func TestRenderReportRequestID(t *testing.T) {
	events := []obs.Event{
		span("balignd.align", map[string]any{"request_id": "srv-42"}),
		span("align.func", map[string]any{"func": "f", "cities": float64(4), "cost": float64(5)}),
	}
	out := renderReport(events)
	if !strings.HasPrefix(out, "request id: srv-42\n") {
		t.Errorf("missing request id header:\n%s", out)
	}
	// Duplicated attrs (root + children) collapse to one mention.
	events = append(events, span("align.hk", map[string]any{"func": "f", "bound": float64(4), "request_id": "srv-42"}))
	if out := renderReport(events); strings.Count(out, "srv-42") != 1 {
		t.Errorf("request id not deduplicated:\n%s", out)
	}
	// The header also leads the empty-trace message, so a daemon trace
	// with no solver spans still identifies itself.
	empty := renderReport([]obs.Event{span("balignd.align", map[string]any{"request_id": "srv-7"})})
	if !strings.HasPrefix(empty, "request id: srv-7\n") {
		t.Errorf("empty-trace message lost the header:\n%s", empty)
	}
	// No attr, no header.
	if out := renderReport([]obs.Event{span("align.func", map[string]any{"func": "f"})}); strings.HasPrefix(out, "request id") {
		t.Errorf("spurious header:\n%s", out)
	}
}

// TestReportRunEndToEnd drives the in-process pipeline of `balign
// report` on a bundled benchmark and checks the solver and bound
// telemetry join into a plausible table.
func TestReportRunEndToEnd(t *testing.T) {
	events, err := reportRun("", "compress", "", "", -1, "alpha21164", "tsp", 1, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := renderReport(events)
	if !strings.Contains(out, "main") || !strings.Contains(out, "total (") {
		t.Errorf("report missing expected rows:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "-1") {
			t.Errorf("negative cell in report:\n%s", out)
		}
	}
}

// TestRunReportRejectsNonPositiveHKIters: the ascent has no default
// iterate count, so a count below one is a usage error.
func TestRunReportRejectsNonPositiveHKIters(t *testing.T) {
	for _, iters := range []string{"0", "-3"} {
		if code := runReport([]string{"-bench", "compress", "-hk-iters", iters}); code == 0 {
			t.Errorf("report with -hk-iters %s should fail", iters)
		}
	}
}

// TestReportRunExtTSP: the live-run -algorithm flag reaches the
// registry, and the algorithm column labels every row with the chain
// merger's name.
func TestReportRunExtTSP(t *testing.T) {
	events, err := reportRun("", "compress", "", "", -1, "alpha21164", "exttsp", 1, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := renderReport(events)
	if !strings.Contains(out, "algorithm") || !strings.Contains(out, "exttsp") {
		t.Errorf("report missing exttsp algorithm column:\n%s", out)
	}
	if _, err := reportRun("", "compress", "", "", -1, "alpha21164", "nonesuch", 1, 30, 0); err == nil {
		t.Error("unknown algorithm should fail the live run")
	}
}

// TestEventLinesFiltersHumanOutput pins the `-trace -` pipe contract:
// lines that are not NDJSON events (driver progress chatter) are
// dropped before decoding, while event lines survive intact.
func TestEventLinesFiltersHumanOutput(t *testing.T) {
	mixed := strings.Join([]string{
		`profiled: 42 IR instructions, 7 dynamic branches`,
		`{"type":"span","name":"align.func","attrs":{"func":"f","cities":3,"cost":10}}`,
		``,
		`aligner   control penalty`,
		`  {"type":"span","name":"align.hk","attrs":{"func":"f","bound":9}}`,
	}, "\n")
	events, err := obs.ReadEvents(eventLines(strings.NewReader(mixed)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(events), events)
	}
	out := renderReport(events)
	if !strings.Contains(out, "f") || !strings.Contains(out, "10") || !strings.Contains(out, "9") {
		t.Fatalf("report missing joined data:\n%s", out)
	}
}
