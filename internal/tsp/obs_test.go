package tsp

import (
	"math/rand"
	"testing"

	"branchalign/internal/obs"
)

// obsInstance builds a random asymmetric instance. Solve takes the
// local-search path on one of more than ExactMaxCities cities, and the
// exact DP on a smaller one.
func obsInstance(n int, seed int64) *SparseMatrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, Cost(1+rng.Intn(100)))
			}
		}
	}
	return m.Sparse()
}

// TestSolveTelemetry pins the solver's event shape: a tsp.solve span,
// one tsp.run span per local-search run each carrying a tour_cost
// convergence series, and identical solver output with tracing on.
func TestSolveTelemetry(t *testing.T) {
	m := obsInstance(30, 7)
	opt := SolveOptions{Seed: 3}
	plain := Solve(m, opt)

	sink := &obs.MemorySink{}
	tr := obs.New(sink)
	root := tr.Start("test")
	opt.Obs = root
	traced := Solve(m, opt)
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if traced.Cost != plain.Cost || !tourEq(traced.Tour, plain.Tour) {
		t.Errorf("tracing changed the solve: cost %d vs %d", traced.Cost, plain.Cost)
	}
	if traced.MovesTried == 0 || traced.MovesTried < traced.MovesAccepted {
		t.Errorf("move counters implausible: tried=%d accepted=%d", traced.MovesTried, traced.MovesAccepted)
	}

	solves := findEvents(sink, "span", "tsp.solve")
	if len(solves) != 1 {
		t.Fatalf("got %d tsp.solve spans, want 1", len(solves))
	}
	sp := solves[0]
	if sp.Int("cities") != 30 || sp.Int("cost") != traced.Cost ||
		sp.Int("runs") != int64(traced.Runs) || sp.Int("moves_tried") != traced.MovesTried {
		t.Errorf("tsp.solve attrs wrong: %+v", sp.Attrs)
	}
	runs := findEvents(sink, "span", "tsp.run")
	if len(runs) != traced.Runs {
		t.Fatalf("got %d tsp.run spans, want %d", len(runs), traced.Runs)
	}
	var bestRunCost int64 = 1 << 62
	for _, r := range runs {
		if r.Parent != sp.ID {
			t.Errorf("tsp.run parent = %d, want %d", r.Parent, sp.ID)
		}
		if s := r.Str("start"); s != "greedy" && s != "nn" && s != "identity" {
			t.Errorf("unexpected start kind %q", s)
		}
		if c := r.Int("cost"); c < bestRunCost {
			bestRunCost = c
		}
	}
	if bestRunCost != traced.Cost {
		t.Errorf("best run cost %d != result cost %d", bestRunCost, traced.Cost)
	}
	series := findEvents(sink, "series", "tour_cost")
	if len(series) != traced.Runs {
		t.Fatalf("got %d tour_cost series, want %d", len(series), traced.Runs)
	}
	for _, se := range series {
		if len(se.Points) == 0 {
			t.Error("empty tour_cost series")
		}
		// Convergence: costs are non-increasing along each run's series.
		for k := 1; k < len(se.Points); k++ {
			if se.Points[k][1] > se.Points[k-1][1] {
				t.Errorf("tour_cost series not monotone: %v", se.Points)
				break
			}
		}
	}
	if len(findEvents(sink, "counter", "tsp.kicks")) != 1 {
		t.Error("missing merged tsp.kicks counter")
	}
}

// TestSolveTelemetryExact pins the exact-DP path's span shape.
func TestSolveTelemetryExact(t *testing.T) {
	m := obsInstance(8, 5)
	sink := &obs.MemorySink{}
	tr := obs.New(sink)
	root := tr.Start("test")
	opt := SolveOptions{Seed: 1}
	opt.Obs = root
	res := Solve(m, opt)
	root.End()
	tr.Close()
	spans := findEvents(sink, "span", "tsp.solve")
	if len(spans) != 1 || !spans[0].Bool("exact") || spans[0].Int("cost") != res.Cost {
		t.Fatalf("exact solve span wrong: %+v", spans)
	}
	if len(findEvents(sink, "span", "tsp.run")) != 0 {
		t.Error("exact path emitted tsp.run spans")
	}
}

// TestHeldKarpTelemetry pins the subgradient spans and that tracing
// leaves the bound unchanged.
func TestHeldKarpTelemetry(t *testing.T) {
	m := obsInstance(20, 11)
	opt := HeldKarpOptions{Iterations: 60}
	plain := HeldKarpBound(m, opt).Bound

	sink := &obs.MemorySink{}
	tr := obs.New(sink)
	root := tr.Start("test")
	opt.Obs = root
	traced := HeldKarpBound(m, opt).Bound
	root.End()
	tr.Close()

	if traced != plain {
		t.Errorf("tracing changed the bound: %v vs %v", traced, plain)
	}
	spans := findEvents(sink, "span", "tsp.heldkarp")
	if len(spans) != 1 {
		t.Fatalf("got %d tsp.heldkarp spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Float("bound") != traced || sp.Int("iterations") <= 0 || sp.Int("cities") != 20 {
		t.Errorf("heldkarp attrs wrong: %+v", sp.Attrs)
	}
	series := findEvents(sink, "series", "hk_bound")
	if len(series) != 1 || len(series[0].Points) == 0 {
		t.Fatalf("hk_bound series missing: %+v", series)
	}
	pts := series[0].Points
	for k := 1; k < len(pts); k++ {
		if pts[k][1] <= pts[k-1][1] {
			t.Errorf("hk_bound trajectory not strictly improving: %v", pts)
			break
		}
	}
	if last := pts[len(pts)-1][1]; last != traced {
		t.Errorf("final trajectory point %v != bound %v", last, traced)
	}
	if len(findEvents(sink, "series", "hk_step")) != 1 {
		t.Error("hk_step series missing")
	}
}

func tourEq(a, b Tour) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// findEvents returns the events of sink matching type and name (either
// may be "" for any).
func findEvents(sink *obs.MemorySink, typ, name string) []obs.Event {
	var out []obs.Event
	for _, e := range sink.Events() {
		if (typ == "" || e.Type == typ) && (name == "" || e.Name == name) {
			out = append(out, e)
		}
	}
	return out
}
