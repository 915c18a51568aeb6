package main

// middleware.go is balignd's request-scoped observability plane: one
// wrapper around the whole mux that assigns every request an ID,
// measures it into the metrics registry, and emits one structured JSON
// access-log line when it completes. The three signals share the
// request ID, so an operator can pivot from a log line to the metrics
// window to the solver trace (`balign report -in`) that produced it.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"branchalign/internal/obs"
)

// requestIDKey carries the assigned request ID through the context.
type requestIDKey struct{}

// requestID returns the ID the middleware assigned to this request (""
// outside an instrumented request).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// middleware instruments an inner handler. One instance serves the
// whole server; all state is concurrency-safe.
type middleware struct {
	next http.Handler
	log  *slog.Logger

	// requests/duration/inflight are the HTTP metric families. The
	// endpoint label is the route pattern, never the raw path — see
	// endpointLabel — so cardinality stays bounded by the route table.
	requests *obs.CounterVec   // endpoint, method, code
	duration *obs.HistogramVec // endpoint
	inflight *obs.Gauge
	// alignErrors is the server's balignd_align_errors_total: a panic
	// recovered on /v1/align counts as a failed align request.
	alignErrors *obs.Counter

	// Request IDs are <process-prefix>-<sequence>: unique within a
	// process, sortable within it, and collision-resistant across
	// restarts via the random prefix.
	prefix string
	seq    atomic.Uint64
}

// http-duration buckets: 2^-14 s (~61µs, a health probe) to 2^7 s
// (128s, a maximally budgeted align).
const (
	httpDurMinExp = -14
	httpDurMaxExp = 7
)

func newMiddleware(next http.Handler, reg *obs.Registry, log *slog.Logger, alignErrors *obs.Counter) *middleware {
	var p [6]byte
	if _, err := rand.Read(p[:]); err != nil {
		// No entropy is survivable: IDs stay unique in-process via the
		// sequence; only cross-restart uniqueness degrades.
		copy(p[:], "noent")
	}
	return &middleware{
		next: next,
		log:  log,
		requests: reg.CounterVec("balignd_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"endpoint", "method", "code"),
		duration: reg.HistogramVec("balignd_http_request_duration_seconds",
			"HTTP request latency by route pattern.",
			httpDurMinExp, httpDurMaxExp, "endpoint"),
		inflight: reg.Gauge("balignd_http_inflight_requests",
			"HTTP requests being served right now."),
		alignErrors: alignErrors,
		prefix:      hex.EncodeToString(p[:]),
	}
}

// endpointLabel maps a request to its route pattern. Unknown paths
// collapse into "other" so a URL scanner cannot inflate the metric
// cardinality.
func endpointLabel(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/v1/align", p == "/v1/healthz", p == "/v1/readyz", p == "/v1/stats", p == "/metrics":
		return p
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	}
	return "other"
}

// statusRecorder captures the status code and body size the inner
// handler produced.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// newID assigns the next request ID, honoring a sane inbound
// X-Request-Id so IDs propagate through proxies and retries.
func (m *middleware) newID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= 64 && cleanID(id) {
		return id
	}
	return m.prefix + "-" + strconv.FormatUint(m.seq.Add(1), 10)
}

// cleanID accepts the charset that is safe to echo into headers, logs
// and trace attributes unescaped.
func cleanID(s string) bool {
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := m.newID(r)
	w.Header().Set("X-Request-Id", id)
	ctx := context.WithValue(r.Context(), requestIDKey{}, id)

	m.inflight.Add(1)
	rec := &statusRecorder{ResponseWriter: w}
	ep := endpointLabel(r)
	m.serve(rec, r.WithContext(ctx), ep)
	m.inflight.Add(-1)

	code := rec.status
	if code == 0 {
		code = http.StatusOK // handler wrote nothing: net/http sends 200
	}
	elapsed := time.Since(start)
	m.requests.With(ep, r.Method, strconv.Itoa(code)).Inc()
	m.duration.With(ep).Observe(elapsed.Seconds())
	m.log.LogAttrs(ctx, slog.LevelInfo, "access",
		slog.String("request_id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", code),
		slog.Int64("bytes", rec.bytes),
		slog.Float64("dur_ms", float64(elapsed.Microseconds())/1000),
		slog.String("remote", r.RemoteAddr),
	)
}

// serve runs the inner handler and turns a panic raised outside the
// engine (which recovers its own) — in decoding, compiling or encoding —
// into a 500 {"kind":"internal"} that is logged and counted like any
// other failed request. http.ErrAbortHandler keeps its meaning: the
// connection is dropped.
func (m *middleware) serve(rec *statusRecorder, r *http.Request, ep string) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			m.inflight.Add(-1)
			panic(p)
		}
		m.log.LogAttrs(r.Context(), slog.LevelError, "panic",
			slog.String("request_id", requestID(r.Context())),
			slog.String("path", r.URL.Path),
			slog.String("panic", fmt.Sprint(p)))
		if ep == "/v1/align" {
			m.alignErrors.Inc()
		}
		if rec.status == 0 {
			writeJSON(rec, http.StatusInternalServerError, errorResponse{
				Error: fmt.Sprintf("internal error: panic: %v", p), Kind: "internal",
			})
		}
	}()
	m.next.ServeHTTP(rec, r)
}
