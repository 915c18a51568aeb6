package obs

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestTrace returns a trace over a fresh MemorySink with a
// deterministic clock advancing 1ms per reading.
func newTestTrace() (*Trace, *MemorySink) {
	sink := &MemorySink{}
	tr := New(sink)
	var tick atomic.Int64 // spans may be created concurrently
	base := time.Unix(1000, 0)
	tr.now = func() time.Time {
		return base.Add(time.Duration(tick.Add(1)) * time.Millisecond)
	}
	tr.start = base
	return tr, sink
}

func TestSpanNesting(t *testing.T) {
	tr, sink := newTestTrace()
	root := tr.Start("root", String("k", "v"))
	child := root.Child("child")
	grand := child.Child("grand")
	grand.End(Int("depth", 3))
	child.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	spans := sink.Find("span", "")
	if len(spans) != 3 {
		t.Fatalf("got %d span events, want 3", len(spans))
	}
	byName := map[string]Event{}
	for _, e := range spans {
		byName[e.Name] = e
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root id %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Errorf("grand parent = %d, want child id %d", byName["grand"].Parent, byName["child"].ID)
	}
	if got := byName["grand"].Int("depth"); got != 3 {
		t.Errorf("grand depth attr = %d, want 3", got)
	}
	if byName["root"].Str("k") != "v" {
		t.Errorf("root attr k = %q, want v", byName["root"].Str("k"))
	}
	// Children end before parents, so spans arrive innermost-first.
	if spans[0].Name != "grand" || spans[2].Name != "root" {
		t.Errorf("span emission order wrong: %v %v %v", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if byName["root"].DurUS <= 0 {
		t.Errorf("root duration = %d, want > 0", byName["root"].DurUS)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr, sink := newTestTrace()
	sp := tr.Start("once")
	sp.End()
	sp.End(Int("late", 1))
	if got := len(sink.Find("span", "once")); got != 1 {
		t.Fatalf("double End emitted %d events, want 1", got)
	}
}

// TestCounterMerge merges counters and histograms (single samples and
// pre-bucketed batches) from 8 goroutines sharing one span into one
// event each — the -race workout for the trace's atomic aggregates.
func TestCounterMerge(t *testing.T) {
	tr, sink := newTestTrace()
	sp := tr.Start("work")
	const workers, iters = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp.Count("moves", 2)
				tr.Count("moves", 1)
				sp.Observe("len", 3)                     // le 4
				sp.ObserveBatch("len", []int64{1, 2}, 5) // 1 + 2 + 2
			}
		}()
	}
	wg.Wait()
	sp.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	counters := sink.Find("counter", "moves")
	if len(counters) != 1 {
		t.Fatalf("got %d counter events, want 1 merged", len(counters))
	}
	if counters[0].Count != workers*iters*3 {
		t.Errorf("merged counter = %d, want %d", counters[0].Count, workers*iters*3)
	}
	h := sink.Find("hist", "len")
	if len(h) != 1 {
		t.Fatalf("got %d hist events, want 1 merged", len(h))
	}
	const runs = workers * iters
	if h[0].Count != 4*runs {
		t.Errorf("merged hist count = %d, want %d", h[0].Count, 4*runs)
	}
	want := []Bucket{{1, runs}, {2, 2 * runs}, {4, runs}}
	if !slices.Equal(h[0].Buckets, want) {
		t.Errorf("merged buckets = %+v, want %+v", h[0].Buckets, want)
	}
	// Every sample is an integer, so the CAS-accumulated sum is exact.
	if mean := h[0].Float("mean"); mean != 8.0/4 {
		t.Errorf("merged mean = %v, want 2", mean)
	}
}

func TestHistogram(t *testing.T) {
	tr, sink := newTestTrace()
	for _, v := range []float64{0, 1, 2, 3, 5, 100} {
		tr.Observe("row_exceptions", v)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	h := sink.Find("hist", "row_exceptions")
	if len(h) != 1 {
		t.Fatalf("got %d hist events, want 1", len(h))
	}
	e := h[0]
	if e.Count != 6 || e.Float("mean") != 111.0/6 {
		t.Errorf("hist summary wrong: count=%d mean=%v", e.Count, e.Float("mean"))
	}
	// 0 and 1 -> le 1; 2 -> le 2; 3 -> le 4; 5 -> le 8; 100 -> le 128.
	want := []Bucket{{1, 2}, {2, 1}, {4, 1}, {8, 1}, {128, 1}}
	if len(e.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", e.Buckets, want)
	}
	for i, b := range want {
		if e.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, e.Buckets[i], b)
		}
	}
}

func TestSeries(t *testing.T) {
	tr, sink := newTestTrace()
	sp := tr.Start("run")
	se := sp.Series("tour_cost")
	se.Add(0, 50)
	se.Add(3, 42)
	empty := sp.Series("never_filled")
	_ = empty
	sp.End()
	events := sink.Find("series", "")
	if len(events) != 1 {
		t.Fatalf("got %d series events, want 1 (empty series suppressed)", len(events))
	}
	e := events[0]
	if e.Name != "tour_cost" || e.Parent == 0 {
		t.Errorf("series event wrong: %+v", e)
	}
	if len(e.Points) != 2 || e.Points[1] != [2]float64{3, 42} {
		t.Errorf("points = %v", e.Points)
	}
	if se.Len() != 2 {
		t.Errorf("Len = %d, want 2", se.Len())
	}
}

// TestDisabledNoOp pins the nil-receiver contract: the disabled tracer
// accepts the full API without allocating or panicking.
func TestDisabledNoOp(t *testing.T) {
	var tr *Trace
	if New(nil) != nil {
		t.Error("New(nil) should return the disabled tracer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("root", Int("n", 1))
		child := sp.Child("child")
		child.Count("c", 1)
		child.Observe("h", 2)
		child.ObserveBatch("hb", []int64{1, 2, 3}, 11)
		se := child.Series("s")
		se.Add(1, 2)
		if se.Len() != 0 {
			t.Error("nil series has points")
		}
		child.SetAttrs(Bool("b", true))
		child.End()
		sp.End()
		tr.Count("c", 1)
		tr.Observe("h", 1)
		tr.ObserveBatch("hb", []int64{4}, 4)
		if err := tr.Close(); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocates %v per run, want 0", allocs)
	}
}

func TestEmitAfterCloseDropped(t *testing.T) {
	tr, sink := newTestTrace()
	sp := tr.Start("late")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if got := sink.Len(); got != 0 {
		t.Errorf("events after close = %d, want 0", got)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	tr := New(sink)
	sp := tr.Start("solve", String("func", "main"), Int("cities", 17), Float("gap", 0.25), Bool("exact", false))
	se := sp.Series("hk_bound")
	se.Add(0, 10.5)
	se.Add(1, 12)
	sp.Count("kicks", 7)
	sp.End(Int("cost", 42))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.err != nil {
		t.Fatal(sink.err)
	}
	if sink.Count() != 3 {
		t.Fatalf("encoded %d events, want 3", sink.Count())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("NDJSON has %d lines, want 3:\n%s", lines, buf.String())
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	var span, series, counter *Event
	for i := range events {
		switch events[i].Type {
		case "span":
			span = &events[i]
		case "series":
			series = &events[i]
		case "counter":
			counter = &events[i]
		}
	}
	if span == nil || series == nil || counter == nil {
		t.Fatalf("missing event kinds in %+v", events)
	}
	if span.Str("func") != "main" || span.Int("cities") != 17 || span.Int("cost") != 42 {
		t.Errorf("span attrs lost: %+v", span.Attrs)
	}
	if span.Float("gap") != 0.25 || span.Bool("exact") {
		t.Errorf("typed attrs lost: %+v", span.Attrs)
	}
	if !span.Has("cities") || span.Has("absent") {
		t.Error("Has wrong")
	}
	if series.Parent != span.ID || len(series.Points) != 2 || series.Points[0] != [2]float64{0, 10.5} {
		t.Errorf("series lost: %+v", series)
	}
	if counter.Name != "kicks" || counter.Count != 7 {
		t.Errorf("counter lost: %+v", counter)
	}
}

func TestReadEventsBadInput(t *testing.T) {
	events, err := ReadEvents(strings.NewReader("{\"type\":\"span\",\"name\":\"a\"}\nnot json\n"))
	if err == nil {
		t.Fatal("expected decode error")
	}
	if len(events) != 1 {
		t.Errorf("got %d events before error, want 1", len(events))
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr, sink := newTestTrace()
	root := tr.Start("align")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child("align.func", Int("fn", int64(i)))
			se := sp.Series("tour_cost")
			se.Add(0, float64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Find("span", "align.func")); got != 16 {
		t.Errorf("got %d align.func spans, want 16", got)
	}
	seen := map[int64]bool{}
	for _, e := range sink.Find("span", "") {
		if seen[e.ID] {
			t.Errorf("duplicate span id %d", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestObserveBatch pins the pre-bucketed merge: bucket counts land on
// the matching power-of-two upper bounds, repeated batches and plain
// Observe calls merge into one histogram, the mean stays exact via the
// carried sum, and an all-zero batch records nothing.
func TestObserveBatch(t *testing.T) {
	tr, sink := newTestTrace()
	// Buckets: 2 samples of value 1, 3 in (1,2], 1 in (2,4]; sum chosen
	// as 1+1+2+2+2+3 = 11.
	tr.ObserveBatch("splice", []int64{2, 3, 1}, 11)
	// Merge a second batch and an individual sample.
	tr.ObserveBatch("splice", []int64{0, 0, 0, 2}, 16) // 2 samples in (4,8], e.g. 8+8
	tr.Observe("splice", 2)
	tr.ObserveBatch("empty", []int64{0, 0, 0}, 0) // must not create a histogram
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	hists := sink.Find("hist", "")
	if len(hists) != 1 {
		t.Fatalf("got %d hist events, want 1 (all-zero batch must record nothing)", len(hists))
	}
	e := hists[0]
	if e.Name != "splice" || e.Count != 9 {
		t.Fatalf("hist %q count %d, want splice/9", e.Name, e.Count)
	}
	if mean := e.Float("mean"); mean != (11.0+16+2)/9 {
		t.Errorf("mean = %v, want %v", mean, (11.0+16+2)/9)
	}
	want := map[int64]int64{1: 2, 2: 4, 4: 1, 8: 2}
	if len(e.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %v", e.Buckets, want)
	}
	for _, b := range e.Buckets {
		if want[b.Le] != b.N {
			t.Errorf("bucket le=%d n=%d, want %d", b.Le, b.N, want[b.Le])
		}
	}
}

// Find returns the collected events matching type and name (either may
// be "" for any).
func (m *MemorySink) Find(typ, name string) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	for _, e := range m.events {
		if (typ == "" || e.Type == typ) && (name == "" || e.Name == name) {
			out = append(out, e)
		}
	}
	return out
}
