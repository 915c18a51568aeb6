// Package obs is the solver telemetry layer: a zero-dependency tracer
// and metrics registry that every stage of the alignment pipeline
// (profiling, DTSP construction, tour heuristics, iterated 3-opt,
// Held-Karp subgradient ascent, patching, pipeline simulation) reports
// into, so that solve quality and speed are observable per run instead
// of only as final numbers.
//
// The model is small and explicit:
//
//   - A Trace owns a Sink and a private Registry (registry.go) that
//     holds its counters and power-of-two histograms. Spans, counters
//     and histograms hang off it. Events are emitted to the sink as
//     they complete; the aggregates are flushed by Close as "counter"
//     and "hist" events.
//   - A Span is a timed, named region with typed attributes and a
//     parent, forming a hierarchy (balign > align > align.func >
//     tsp.solve > tsp.run). Ending a span emits one Event.
//   - A Series is an (x, y) sequence attached to a span — tour cost per
//     kick iteration, Held-Karp bound per subgradient iteration —
//     emitted as a single event when the span ends.
//   - Sinks are pluggable: NDJSONSink streams newline-delimited JSON,
//     MemorySink collects events for tests and in-process reporting.
//
// Zero cost when disabled: a nil *Trace is the disabled tracer, and
// every method on *Trace, *Span and *Series is nil-receiver safe and
// returns immediately. Solver hot paths hold a *Span (nil when
// tracing is off) and pay one predictable branch per telemetry call;
// the repository-level bench_obs_test.go benchmarks pin that the 3-opt
// inner loop shows no measurable overhead with tracing disabled.
//
// Concurrency: a Trace and its registry are safe for concurrent use
// (the parallel per-function solver loops in package align report into
// one Trace). Creating child spans of a shared parent is safe from
// multiple goroutines; an individual Span's SetAttrs/Series/End must be
// used from one goroutine, which matches the one-span-per-function
// structure of the pipeline.
package obs

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one typed key/value attribute. Values are restricted by the
// constructors to strings, int64s, float64s and bools so every event
// round-trips through JSON. The payload fields are concrete rather than
// an interface: constructing attributes boxes nothing, so call sites on
// a disabled (nil) span stay allocation-free — values convert to `any`
// only when an enabled span stores them.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	i    int64
	f    float64
	b    bool
}

type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// value boxes the attribute's payload for storage in an event.
func (a Attr) value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	case attrBool:
		return a.b
	default:
		return a.str
	}
}

// String returns a string attribute.
func String(k, v string) Attr { return Attr{Key: k, kind: attrString, str: v} }

// Int returns an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, kind: attrInt, i: v} }

// Float returns a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, kind: attrFloat, f: v} }

// Bool returns a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, kind: attrBool, b: v} }

// Trace is the root telemetry object. The nil *Trace is the disabled
// tracer: every method no-ops, which is the zero-cost-when-disabled
// contract the solver hot paths rely on.
type Trace struct {
	sink  Sink
	start time.Time
	now   func() time.Time

	ids atomic.Int64

	// The trace's aggregates live in a private Registry: one counter
	// and one histogram family, each keyed by the dotted metric name
	// ("tsp.kicks") as a label value, so names need no Prometheus
	// grammar.
	counters *CounterVec
	hists    *HistogramVec

	mu     sync.Mutex // serializes sink emission and Close
	closed bool
}

// New returns a Trace emitting into sink. A nil sink returns the nil
// (disabled) trace, so callers can unconditionally write
// obs.New(maybeNilSink) and thread the result everywhere.
func New(sink Sink) *Trace {
	if sink == nil {
		return nil
	}
	reg := NewRegistry()
	t := &Trace{
		sink:     sink,
		now:      time.Now,
		counters: reg.CounterVec("trace_counter", "", "name"),
		hists:    reg.HistogramVec("trace_hist", "", 0, 62, "name"),
	}
	t.start = t.now()
	return t
}

func (t *Trace) emit(e Event) {
	t.mu.Lock()
	if !t.closed {
		t.sink.Emit(e)
	}
	t.mu.Unlock()
}

// Start begins a root span.
func (t *Trace) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0, attrs)
}

func (t *Trace) newSpan(name string, parent int64, attrs []Attr) *Span {
	s := &Span{t: t, id: t.ids.Add(1), parent: parent, name: name, start: t.now()}
	s.attrs = attrsMap(nil, attrs)
	return s
}

// Count adds delta (>= 0; counters are monotone) to the named counter.
// Concurrent adds from any goroutine merge into one total, flushed as a
// single "counter" event by Close.
func (t *Trace) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.counters.With(name).Add(delta)
}

// Observe adds one sample to the named histogram (power-of-two
// buckets, le 1 to 2^62), e.g. per-row sparse-matrix exception counts.
func (t *Trace) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.hists.With(name).Observe(v)
}

// ObserveBatch merges a pre-bucketed power-of-two histogram into the
// named trace histogram: counts[i] samples with value in (2^(i-1), 2^i]
// (counts[0]: values up to 1), totalling sum. Hot loops tally local
// buckets and flush once per region — the 3-opt/Or-opt splice-length
// histogram flushes per local-search run — so concurrent runs pay a
// handful of atomic adds instead of one per sample. Bucket counts and
// the mean (via sum) merge exactly. An all-zero batch records nothing.
func (t *Trace) ObserveBatch(name string, counts []int64, sum float64) {
	if t == nil || !slices.ContainsFunc(counts, func(c int64) bool { return c != 0 }) {
		return
	}
	t.hists.With(name).observeBatch(counts, sum)
}

// Close flushes the trace's aggregates as events — "counter" events,
// then "hist" events (count, non-empty buckets, mean), each in sorted
// name order so output is deterministic — and closes the sink if it
// implements io.Closer. Close is idempotent; a nil trace closes
// successfully.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	for _, s := range t.counters.f.sorted() {
		t.sink.Emit(Event{Type: "counter", Name: s.values[0], Count: s.n.Load()})
	}
	for _, s := range t.hists.f.sorted() {
		n := s.n.Load()
		e := Event{
			Type:  "hist",
			Name:  s.values[0],
			Count: n,
			Attrs: map[string]any{"mean": math.Float64frombits(s.bits.Load()) / float64(n)},
		}
		for i := range s.buckets {
			if c := s.buckets[i].Load(); c > 0 { // minExp 0: bucket i is le 2^i
				e.Buckets = append(e.Buckets, Bucket{Le: 1 << i, N: c})
			}
		}
		t.sink.Emit(e)
	}
	t.closed = true
	t.mu.Unlock()
	if c, ok := t.sink.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Span is a timed region of the pipeline. The nil *Span is valid and
// inert; solver code threads *Span unconditionally and pays only a nil
// check when tracing is disabled.
type Span struct {
	t      *Trace
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  map[string]any
	series []*Series
	ended  bool
}

// Child starts a sub-span. Safe to call concurrently on a shared
// parent (the parallel per-function solver loops do).
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(name, s.id, attrs)
}

// SetAttrs adds or overwrites attributes on the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = attrsMap(s.attrs, attrs)
}

// Count adds to a trace-level counter (see Trace.Count).
func (s *Span) Count(name string, delta int64) {
	if s == nil {
		return
	}
	s.t.Count(name, delta)
}

// Observe adds a sample to a trace-level histogram (see Trace.Observe).
func (s *Span) Observe(name string, v float64) {
	if s == nil {
		return
	}
	s.t.Observe(name, v)
}

// ObserveBatch merges pre-bucketed samples into a trace-level histogram
// (see Trace.ObserveBatch).
func (s *Span) ObserveBatch(name string, counts []int64, sum float64) {
	if s == nil {
		return
	}
	s.t.ObserveBatch(name, counts, sum)
}

// Series opens a named (x, y) series attached to this span, emitted as
// one event when the span ends. On a nil span it returns the nil
// (inert) series.
func (s *Span) Series(name string) *Series {
	if s == nil {
		return nil
	}
	se := &Series{name: name}
	s.series = append(s.series, se)
	return se
}

// End closes the span, merging any final attributes, and emits its
// event (plus one event per non-empty series). End is idempotent.
func (s *Span) End(attrs ...Attr) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.attrs = attrsMap(s.attrs, attrs)
	end := s.t.now()
	for _, se := range s.series {
		if len(se.points) == 0 {
			continue
		}
		s.t.emit(Event{Type: "series", Name: se.name, Parent: s.id, Points: se.points})
	}
	s.t.emit(Event{
		Type:    "span",
		Name:    s.name,
		ID:      s.id,
		Parent:  s.parent,
		StartUS: s.start.Sub(s.t.start).Microseconds(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Attrs:   s.attrs,
	})
}

// Series accumulates (x, y) points — convergence trajectories like
// tour cost per kick iteration or Held-Karp bound per subgradient
// iteration. The nil *Series discards points.
type Series struct {
	name   string
	points [][2]float64
}

// Add appends one point.
func (se *Series) Add(x int64, y float64) {
	if se == nil {
		return
	}
	se.points = append(se.points, [2]float64{float64(x), y})
}

// Len returns the number of points recorded so far (0 on nil).
func (se *Series) Len() int {
	if se == nil {
		return 0
	}
	return len(se.points)
}

func attrsMap(m map[string]any, attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return m
	}
	if m == nil {
		m = make(map[string]any, len(attrs))
	}
	for _, a := range attrs {
		m[a.Key] = a.value()
	}
	return m
}
