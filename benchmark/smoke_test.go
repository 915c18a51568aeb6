package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type metricSpec struct{ Name, Unit string }

// readSpec returns the end-to-end and per-layer metrics BENCHMARK.json
// names.
func readSpec(t *testing.T) (endToEnd, perLayer []metricSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// smokeRun runs o at 3 timed requests per workload in one round and
// returns each run's result line, checking that nothing failed and that
// every metric in want is present with its unit.
func smokeRun(t *testing.T, o options, want []metricSpec) {
	t.Helper()
	o.root, o.seed, o.seconds, o.runs, o.rounds, o.maxRequests = "..", 1, 60, 1, 1, 3
	var out bytes.Buffer
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var results []result
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
	}
	names := workloadNames
	if o.workload != "all" {
		names = []string{o.workload}
	}
	if len(results) != len(names) {
		t.Fatalf("%d result lines for %d workloads:\n%s", len(results), len(names), out.String())
	}
	for i, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted < 3 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", names[i], r.Correct, r.Failed, r.Attempted)
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %q", names[i], m.Name, got, m.Unit)
			}
		}
	}
}

// TestSmoke runs every workload for 3 timed requests against a freshly
// built daemon and checks that every end-to-end metric BENCHMARK.json
// names is printed with its unit and that no request failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts balignd")
	}
	endToEnd, _ := readSpec(t)
	smokeRun(t, options{workload: "all"}, endToEnd)
}

// TestSmokeTraced does the same for the per-layer metrics of one traced
// run.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts balignd")
	}
	_, perLayer := readSpec(t)
	smokeRun(t, options{workload: "synth_recorded", trace: true}, perLayer)
}

// TestSynthDeterministic checks that a generated module's bytes are a
// function of its seed alone, that it meets the block-count targets and
// that its profiling run stays under the step cap.
func TestSynthDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		size := synthSizes[seed%int64(len(synthSizes))]
		a, err := genSynth(seed, size)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genSynth(seed, size)
		if err != nil {
			t.Fatal(err)
		}
		if a.source != b.source || !equal(a.data, b.data) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if !synthShapeOK(a.mod, size) {
			t.Errorf("seed %d: module misses the block-count targets", seed)
		}
		if a.steps <= 0 || a.steps >= synthStepCap {
			t.Errorf("seed %d: profiling took %d steps, cap %d", seed, a.steps, synthStepCap)
		}
	}
}

func equal(a, b []int64) bool {
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
