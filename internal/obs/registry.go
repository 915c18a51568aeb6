package obs

// registry.go is the process-wide metrics plane: where obs.Trace
// observes one solve from the inside, a Registry aggregates the whole
// process — every request, every cache decision, every pool queue — and
// exposes the totals in Prometheus text format for scraping.
//
// The model mirrors Prometheus' own, hand-rolled on the stdlib:
//
//   - A metric family has a name, a help string, a kind (counter,
//     gauge, histogram) and a fixed set of label keys declared at
//     registration. Registration is idempotent for an identical
//     signature and panics on a conflicting one — a name collision is a
//     programming error, not a runtime condition.
//   - A family with labels is a vector: With(values...) resolves one
//     labeled series, which callers cache and then update lock-free
//     (counters and histogram buckets are atomics; gauges are
//     atomically-stored float bits).
//   - Histograms bucket by powers of two (bucketIndex, the repository's
//     one bucketing — Trace histograms are registry series too) over a
//     fixed exponent range declared at registration, so every series in
//     a family exposes the same `le` schedule (Prometheus requires
//     aggregatable buckets). Observations above the top bound count
//     only toward `+Inf`, `_sum` and `_count`.
//   - WritePrometheus renders the whole registry deterministically:
//     families in name order, series in label-value order, `le` last —
//     so the exposition is golden-testable byte for byte.
//
// Zero cost when disabled: the nil *Registry is the disabled registry.
// Every registration method on it returns a nil handle, and every
// update method on a nil handle returns immediately without
// allocating, so instrumented code needs no build-time gating (the same
// contract as the nil *Trace).
//
// Cardinality is the caller's contract: label values must come from
// small closed sets (route patterns, outcome enums — never user input,
// request IDs or function names), so a registry's memory is bounded by
// the code that registers into it.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use; the nil *Registry is the
// disabled registry (see the package comment above).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type familyKind uint8

const (
	kindCounter familyKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric family: fixed label keys, a set of labeled
// series. The family mutex guards the series map only; series values
// are atomics updated without it.
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string
	// histogram families: bucket upper bounds are 2^e for
	// e in [minExp, maxExp].
	minExp, maxExp int
	// gauge-func families: value read at collection time.
	fn func() float64

	mu     sync.Mutex
	series map[string]*series // keyed by label values joined with \x00
}

// series is one labeled instance of a family. Which fields are live
// depends on the kind: counters use n; gauges use bits (float64 bits);
// histograms use n (count), bits (sum bits, CAS-accumulated) and
// buckets (non-cumulative per-bound counts).
type series struct {
	values  []string
	n       atomic.Int64
	bits    atomic.Uint64
	buckets []atomic.Int64
}

// addFloat adds delta to the float64 stored in bits (a CAS loop, safe
// from any goroutine): gauge values and histogram sums.
func (s *series) addFloat(delta float64) {
	for {
		old := s.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// register returns the named family, creating it on first use. A
// re-registration with an identical signature returns the existing
// family; a conflicting one panics.
func (r *Registry) register(name, help string, kind familyKind, labels []string, minExp, maxExp int) *family {
	if name == "" || !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validMetricName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || f.minExp != minExp || f.maxExp != maxExp {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different signature", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		minExp: minExp, maxExp: maxExp,
		series: map[string]*series{},
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
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

// validMetricName enforces the Prometheus identifier grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(s) > 0
}

// with resolves (creating on demand) the series for the given label
// values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{values: append([]string(nil), values...)}
		if f.kind == kindHistogram {
			s.buckets = make([]atomic.Int64, f.maxExp-f.minExp+1)
		}
		f.series[key] = s
	}
	return s
}

// ---------------------------------------------------------------------
// Counters

// Counter is a monotonically increasing integer metric. The nil
// *Counter is inert.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (which must be >= 0 to keep the counter monotone;
// negative deltas are ignored).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.s.n.Add(delta)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.s.n.Load()
}

// Counter registers (or looks up) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindCounter, nil, 0, 0)
	return &Counter{s: f.with(nil)}
}

// CounterVec is a counter family with labels. The nil *CounterVec is
// inert: With returns the nil *Counter without allocating.
type CounterVec struct{ f *family }

// With resolves the series for the given label values (one per label
// key, in registration order). Callers on hot paths should resolve once
// and cache the handle.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.with(values)}
}

// CounterVec registers (or looks up) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels, 0, 0)}
}

// ---------------------------------------------------------------------
// Gauges

// Gauge is an instantaneous value that moves up and down by Add. The nil
// *Gauge is inert.
type Gauge struct{ s *series }

// Add adds delta (CAS loop; safe from any goroutine).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.s.addFloat(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.s.bits.Load())
}

// Gauge registers (or looks up) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindGauge, nil, 0, 0)
	return &Gauge{s: f.with(nil)}
}

// GaugeFunc registers a gauge whose value is read by calling fn at
// collection time — live views like pool queue depth or cache size.
// fn must be safe to call from any goroutine and may take its own
// locks, but must never call back into registry registration.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindGaugeFunc, nil, 0, 0)
	f.fn = fn
}

// ---------------------------------------------------------------------
// Histograms

// Histogram is a power-of-two-bucketed sample distribution. The nil
// *Histogram is inert.
type Histogram struct {
	s              *series
	minExp, maxExp int
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if i, ok := bucketIndex(v, h.minExp, h.maxExp); ok {
		h.s.buckets[i].Add(1)
	}
	h.s.n.Add(1)
	h.s.addFloat(v)
}

// observeBatch merges pre-bucketed samples: counts[i] samples in bucket
// i of h's schedule (upper bound 2^(minExp+i)), totalling sum. Counts
// past the top bound count only toward +Inf, _sum and _count, as in
// Observe. Buckets are added before the count, keeping the exposition's
// le-monotonicity invariant under concurrent collection.
func (h *Histogram) observeBatch(counts []int64, sum float64) {
	var total int64
	for i, c := range counts {
		if i < len(h.s.buckets) {
			h.s.buckets[i].Add(c)
		}
		total += c
	}
	h.s.n.Add(total)
	h.s.addFloat(sum)
}

// bucketIndex maps v to the index of the smallest bound 2^e >= v with
// e in [minExp, maxExp]; ok is false when v exceeds every bound (the
// sample still counts toward +Inf via _count).
func bucketIndex(v float64, minExp, maxExp int) (int, bool) {
	if v <= math.Ldexp(1, minExp) {
		return 0, true
	}
	if v > math.Ldexp(1, maxExp) {
		return 0, false
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	e := exp
	if frac == 0.5 {
		e = exp - 1 // v is an exact power of two: 2^(exp-1)
	}
	return e - minExp, true
}

// Histogram registers (or looks up) an unlabeled histogram with bucket
// upper bounds 2^minExp .. 2^maxExp (plus +Inf). For latencies in
// seconds, minExp -14 .. maxExp 6 spans ~61µs to 64s.
func (r *Registry) Histogram(name, help string, minExp, maxExp int) *Histogram {
	if r == nil {
		return nil
	}
	if minExp > maxExp {
		panic(fmt.Sprintf("obs: histogram %q has minExp %d > maxExp %d", name, minExp, maxExp))
	}
	f := r.register(name, help, kindHistogram, nil, minExp, maxExp)
	return &Histogram{s: f.with(nil), minExp: minExp, maxExp: maxExp}
}

// HistogramVec is a histogram family with labels; nil is inert.
type HistogramVec struct{ f *family }

// With resolves the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{s: v.f.with(values), minExp: v.f.minExp, maxExp: v.f.maxExp}
}

// HistogramVec registers (or looks up) a labeled histogram family; see
// Histogram for the bucket schedule.
func (r *Registry) HistogramVec(name, help string, minExp, maxExp int, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if minExp > maxExp {
		panic(fmt.Sprintf("obs: histogram %q has minExp %d > maxExp %d", name, minExp, maxExp))
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, minExp, maxExp)}
}

// ---------------------------------------------------------------------
// Reading back

// Sum returns the sum over all series of the named family whose labels
// match every key=value pair in match (nil matches everything):
// counter counts, gauge values (gauge funcs call fn), histogram sample
// counts. Unknown families sum to 0. This is the read side /v1/stats
// and the parity tests use, so JSON surfaces can never drift from the
// exposition — both read the same cells.
func (r *Registry) Sum(name string, match map[string]string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	if f.kind == kindGaugeFunc {
		if len(match) == 0 && f.fn != nil {
			return f.fn()
		}
		return 0
	}
	idx := map[string]int{}
	for i, l := range f.labels {
		idx[l] = i
	}
	for k := range match {
		if _, ok := idx[k]; !ok {
			return 0
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var sum float64
	for _, s := range f.series {
		matched := true
		for k, want := range match {
			if s.values[idx[k]] != want {
				matched = false
				break
			}
		}
		if !matched {
			continue
		}
		switch f.kind {
		case kindCounter, kindHistogram:
			sum += float64(s.n.Load())
		case kindGauge:
			sum += math.Float64frombits(s.bits.Load())
		}
	}
	return sum
}

// ---------------------------------------------------------------------
// Prometheus text exposition

// WritePrometheus renders every family in Prometheus text format
// (version 0.0.4): families in name order, series in label-value order,
// histogram buckets cumulative with a trailing +Inf, `le` as the last
// label. The output is deterministic for a deterministic set of
// updates, so it golden-tests byte for byte.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// sorted returns the family's series in label-value order — the one
// series order of both the exposition and Trace.Close.
func (f *family) sorted() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]*series, 0, len(keys))
	for _, k := range keys {
		ordered = append(ordered, f.series[k])
	}
	return ordered
}

func (f *family) write(b *strings.Builder) {
	if f.help != "" {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.String())
	b.WriteByte('\n')

	if f.kind == kindGaugeFunc {
		var v float64
		if f.fn != nil {
			v = f.fn()
		}
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(formatFloat(v))
		b.WriteByte('\n')
		return
	}

	for _, s := range f.sorted() {
		switch f.kind {
		case kindCounter:
			b.WriteString(f.name)
			writeLabels(b, f.labels, s.values, "", 0)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(s.n.Load(), 10))
			b.WriteByte('\n')
		case kindGauge:
			b.WriteString(f.name)
			writeLabels(b, f.labels, s.values, "", 0)
			b.WriteByte(' ')
			b.WriteString(formatFloat(math.Float64frombits(s.bits.Load())))
			b.WriteByte('\n')
		case kindHistogram:
			// Load count first, then buckets: a concurrent Observe
			// increments the bucket before the count, so cumulative
			// bucket tallies never exceed what +Inf (== _count) reports
			// — the le-monotonicity invariant holds even mid-update.
			count := s.n.Load()
			var cum int64
			for i := range s.buckets {
				n := s.buckets[i].Load()
				cum += n
				if cum > count {
					cum = count
				}
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(b, f.labels, s.values, "le", math.Ldexp(1, f.minExp+i))
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(cum, 10))
				b.WriteByte('\n')
			}
			b.WriteString(f.name)
			b.WriteString("_bucket")
			writeLabels(b, f.labels, s.values, "le", math.Inf(1))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(count, 10))
			b.WriteByte('\n')
			b.WriteString(f.name)
			b.WriteString("_sum")
			writeLabels(b, f.labels, s.values, "", 0)
			b.WriteByte(' ')
			b.WriteString(formatFloat(math.Float64frombits(s.bits.Load())))
			b.WriteByte('\n')
			b.WriteString(f.name)
			b.WriteString("_count")
			writeLabels(b, f.labels, s.values, "", 0)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(count, 10))
			b.WriteByte('\n')
		}
	}
}

// writeLabels renders {k="v",...}, appending le as the final label when
// leKey is non-empty. No labels at all renders nothing.
func writeLabels(b *strings.Builder, keys, values []string, leKey string, le float64) {
	if len(keys) == 0 && leKey == "" {
		return
	}
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		if math.IsInf(le, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatFloat(le))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trippable decimal.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a help string: backslash and newline only (quotes
// are legal in help text).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
