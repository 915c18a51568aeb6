package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"sync/atomic"
	"time"

	"branchalign/internal/bench"
	"branchalign/internal/engine"
	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/machine"
	"branchalign/internal/minic"
	"branchalign/internal/obs"
	"branchalign/internal/stats"
	"branchalign/internal/tsp"
)

// serverConfig carries the knobs the flags set.
type serverConfig struct {
	// Workers bounds concurrent per-function solves (engine pool).
	Workers int
	// Parallelism is the default per-run solver parallelism applied to
	// requests that don't set their own (see engine.Options.Parallelism).
	// Results are bit-identical at every setting, so it never enters the
	// cache key.
	Parallelism int
	// CacheEntries bounds the engine result cache.
	CacheEntries int
	// MaxInflight bounds concurrently served /v1/align requests; excess
	// requests are shed with 429 rather than queued, so a burst cannot
	// build an unbounded backlog of goroutines holding parsed modules.
	MaxInflight int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// MaxTimeout clamps what a request may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ (off by default:
	// profiling endpoints expose heap contents and cost CPU, so they are
	// opt-in per process, not per scrape).
	Pprof bool
	// LogWriter receives the structured JSON logs (access lines,
	// lifecycle events). Nil silences them — main passes os.Stderr,
	// tests pass a buffer or nothing.
	LogWriter io.Writer
}

func (c serverConfig) withDefaults() serverConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	return c
}

type server struct {
	cfg      serverConfig
	reg      *obs.Registry
	eng      *engine.Engine
	logger   *slog.Logger
	inflight chan struct{}
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the observability middleware

	// draining flips once, when shutdown begins: /v1/readyz goes 503 so
	// load balancers stop routing here, while /v1/healthz stays 200 so
	// orchestrators do not kill the process mid-drain.
	draining atomic.Bool

	// Server-level counters, alongside the middleware's HTTP families.
	// shed/alignErrors/alignTruncated classify /v1/align outcomes the
	// status code alone does not (truncated solves are 200s).
	sheds          *obs.Counter
	alignErrors    *obs.Counter
	alignTruncated *obs.Counter

	// testHookAligning, when set, runs inside handleAlign after the
	// in-flight slot is taken — the deterministic window server tests
	// (drain, shedding) synchronize on.
	testHookAligning func()
}

// newServer wires the registry, engine, middleware and routes. It is
// the unit the tests exercise through httptest, independent of sockets
// and signals.
func newServer(cfg serverConfig) *server {
	cfg = cfg.withDefaults()
	logOut := cfg.LogWriter
	if logOut == nil {
		logOut = io.Discard
	}
	reg := obs.NewRegistry()
	s := &server{
		cfg: cfg,
		reg: reg,
		eng: engine.New(engine.Options{
			Workers:      cfg.Workers,
			Parallelism:  cfg.Parallelism,
			CacheEntries: cfg.CacheEntries,
			Registry:     reg,
		}),
		logger:   slog.New(slog.NewJSONHandler(logOut, nil)),
		inflight: make(chan struct{}, cfg.MaxInflight),
		mux:      http.NewServeMux(),
		sheds: reg.Counter("balignd_sheds_total",
			"Align requests shed with 429 at the in-flight cap."),
		alignErrors: reg.Counter("balignd_align_errors_total",
			"Align requests that failed (malformed input, expired deadline before solving)."),
		alignTruncated: reg.Counter("balignd_align_truncated_total",
			"Align responses whose solve was truncated by a deadline or budget."),
	}
	s.mux.HandleFunc("POST /v1/align", s.handleAlign)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
	// Catch-all: unknown routes get the same structured JSON error body
	// as every other failure, not net/http's plain-text 404 page.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path),
			Kind:  "not_found",
		})
	})
	s.handler = newMiddleware(s.mux, reg, s.logger, s.alignErrors)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// startDrain marks the server not-ready. In-flight requests keep
// running (http.Server.Shutdown waits for them); only the readiness
// probe changes, so traffic stops arriving before connections close.
func (s *server) startDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "draining")
	}
}

// alignRequest is the wire form of one alignment job: a program (inline
// Mini-C source, or the name of a bundled benchmark) plus either a
// training input or a previously recorded profile (the JSON written by
// `balign -profile-out`).
type alignRequest struct {
	Source  string `json:"source,omitempty"`
	Bench   string `json:"bench,omitempty"`
	DataSet string `json:"dataset,omitempty"`

	Data []int64 `json:"data,omitempty"`
	N    *int64  `json:"n,omitempty"`
	// Profile, when present, is used instead of running the program.
	Profile json.RawMessage `json:"profile,omitempty"`
	// ProfileMode selects where the profile comes from: "measured" (the
	// default — run the program or use Profile) or "static" (no profiling
	// at all: the engine estimates edge frequencies from CFG structure;
	// Data/N/Profile must be absent).
	ProfileMode string `json:"profile_mode,omitempty"`

	Model string `json:"model,omitempty"`
	// Algorithm selects the aligner by registry name ("tsp", "exttsp",
	// "greedy", ...); empty means "tsp". Unknown names are rejected with
	// kind "unknown_algorithm".
	Algorithm string `json:"algorithm,omitempty"`
	Seed      int64  `json:"seed,omitempty"`

	Bound        bool `json:"bound,omitempty"`
	HKIterations int  `json:"hk_iterations,omitempty"`

	// Parallelism overrides the server's per-run solver parallelism for
	// this request (-1 = all CPUs). The response is bit-identical at
	// every setting — only wall-clock changes — so a cached result solved
	// at one setting is served for every other.
	Parallelism int `json:"parallelism,omitempty"`

	// TimeoutMS and MaxKicks budget the solve; see tsp.Budget. A
	// deadline hit yields a valid truncated result, not an error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	MaxKicks  int64 `json:"max_kicks,omitempty"`

	// Trace returns the request-scoped telemetry events inline.
	Trace bool `json:"trace,omitempty"`
}

type alignResponse struct {
	Penalty         int64   `json:"penalty"`
	OriginalPenalty int64   `json:"original_penalty"`
	Normalized      float64 `json:"normalized"`
	Bound           int64   `json:"bound,omitempty"`
	Truncated       bool    `json:"truncated"`
	CacheHit        bool    `json:"cache_hit"`
	Coalesced       bool    `json:"coalesced"`
	// ProfileSource reports what drove the alignment: "measured" or
	// "static" (estimated; such results live in a disjoint cache
	// partition from measured ones).
	ProfileSource string `json:"profile_source"`
	// Algorithm echoes the aligner that produced the layout (the request
	// default resolved, so clients always see the concrete name).
	Algorithm string `json:"algorithm"`

	Funcs       []engine.FuncStat `json:"funcs"`
	ElapsedMS   float64           `json:"elapsed_ms"`
	TraceEvents []obs.Event       `json:"trace_events,omitempty"`
}

// errorResponse is the structured error body every non-200 carries:
// Error is the human-readable message, Kind a stable machine-readable
// discriminator clients can switch on without parsing prose.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// errKind classifies an error into the wire discriminator.
func errKind(code int, err error) string {
	switch {
	case errors.Is(err, interp.ErrCellBudget), errors.Is(err, engine.ErrFuncTooLarge):
		return "too_large"
	case errors.Is(err, interp.ErrStepBudget), errors.Is(err, engine.ErrEstimateBudget):
		return "budget_exceeded"
	case errors.Is(err, engine.ErrNoModule):
		return "no_module"
	case errors.Is(err, engine.ErrNoProfile):
		return "no_profile"
	case errors.Is(err, engine.ErrProfileConflict):
		return "profile_conflict"
	case errors.Is(err, engine.ErrUnknownAlgorithm):
		return "unknown_algorithm"
	case errors.Is(err, engine.ErrInternal):
		return "internal"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "timeout"
	}
	switch code {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusTooManyRequests:
		return "capacity"
	case http.StatusServiceUnavailable:
		return "timeout"
	}
	return "internal"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness only: stays 200 through a drain so the orchestrator does
	// not kill a process that is still finishing requests.
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// statsResponse is the /v1/stats body. Every number is read back from
// the metrics registry (or the engine's handles into it), so this JSON
// view and the /metrics exposition can never disagree —
// TestStatsMatchesMetrics pins the parity.
type statsResponse struct {
	Server struct {
		Requests  int64 `json:"requests"`
		Shed      int64 `json:"shed"`
		Errors    int64 `json:"errors"`
		Truncated int64 `json:"truncated"`
	} `json:"server"`
	Engine engine.Stats `json:"engine"`
}

func (s *server) statsSnapshot() statsResponse {
	var out statsResponse
	// "requests" keeps its historical meaning: align requests accepted
	// for handling, shed ones included. The middleware's counter ticks
	// on completion, and sheds are also counted there, so in-flight
	// align requests appear once they finish.
	out.Server.Requests = int64(s.reg.Sum("balignd_http_requests_total",
		map[string]string{"endpoint": "/v1/align"}))
	out.Server.Shed = s.sheds.Value()
	out.Server.Errors = s.alignErrors.Value()
	out.Server.Truncated = s.alignTruncated.Value()
	out.Engine = s.eng.Stats()
	return out
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

func (s *server) handleAlign(w http.ResponseWriter, r *http.Request) {
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		// Shed instead of queueing: the caller can retry with backoff,
		// and /v1/healthz stays responsive because it never takes this
		// path.
		s.sheds.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "server at capacity", Kind: "capacity"})
		return
	}
	if s.testHookAligning != nil {
		s.testHookAligning()
	}

	var req alignRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	// r.Context() additionally cancels the solve when the client goes
	// away — no point polishing a layout nobody will read.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	res, httpCode, err := s.align(ctx, req)
	if err != nil {
		s.fail(w, httpCode, err)
		return
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if res.Truncated {
		s.alignTruncated.Inc()
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) fail(w http.ResponseWriter, code int, err error) {
	s.alignErrors.Inc()
	writeJSON(w, code, errorResponse{Error: err.Error(), Kind: errKind(code, err)})
}

// align runs the request through the engine. The int return is the HTTP
// status to use when err != nil.
func (s *server) align(ctx context.Context, req alignRequest) (*alignResponse, int, error) {
	ereq, err := engineRequest(req, s.cfg.MaxTimeout)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}

	var (
		tr   *obs.Trace
		sink *obs.MemorySink
		root *obs.Span
	)
	if req.Trace {
		sink = &obs.MemorySink{}
		tr = obs.New(sink)
		root = tr.Start("balignd.align", obs.String("model", ereq.Model.Name),
			obs.String("algorithm", ereq.Algorithm), obs.Int("seed", req.Seed))
		// Stamp the middleware-assigned request ID on the root span, so
		// an access-log line leads straight to the solver trace that
		// served it (`balign report -in` prints it back in its header).
		if id := requestID(ctx); id != "" {
			root.SetAttrs(obs.String("request_id", id))
		}
		ereq.Obs = root
	}

	eres, err := s.eng.Align(ctx, ereq)
	if err != nil {
		return nil, alignStatus(err), err
	}

	resp := &alignResponse{
		Penalty:         int64(eres.Penalty),
		OriginalPenalty: int64(eres.OriginalPenalty),
		Normalized:      stats.Ratio(eres.Penalty, eres.OriginalPenalty, 1),
		Bound:           int64(eres.Bound),
		Truncated:       eres.Truncated,
		CacheHit:        eres.CacheHit,
		Coalesced:       eres.Coalesced,
		ProfileSource:   "measured",
		Algorithm:       ereq.Algorithm,
		Funcs:           eres.Funcs,
	}
	if eres.ProfileEstimated {
		resp.ProfileSource = "static"
	}
	if req.Trace {
		cache := "miss"
		switch {
		case eres.CacheHit:
			cache = "hit"
		case eres.Coalesced:
			cache = "coalesced"
		}
		root.End(obs.Bool("truncated", eres.Truncated), obs.String("cache", cache))
		if err := tr.Close(); err != nil {
			return nil, http.StatusInternalServerError, err
		}
		resp.TraceEvents = sink.Events()
	}
	return resp, 0, nil
}

// alignStatus is the HTTP status of a failed engine request: a program
// whose arrays exceed the interpreter's cell budget, or with a function
// over engine.MaxFuncBlocks blocks, is too large (413),
// one whose profiling run exceeds its step budget, or whose static
// estimate exceeds the per-function count cap, is unprocessable (422),
// a deadline consumed before the solve began (the request's own,
// or the profiling run's) is 503, a panic inside the engine is 500, and
// anything else is malformed input.
func alignStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrInternal):
		return http.StatusInternalServerError
	case errors.Is(err, interp.ErrCellBudget), errors.Is(err, engine.ErrFuncTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, interp.ErrStepBudget), errors.Is(err, engine.ErrEstimateBudget):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// pickProfileMode validates the request's profile_mode and its
// interaction with the profile-bearing fields. It returns whether the
// engine should estimate the profile statically.
func pickProfileMode(req alignRequest) (bool, error) {
	switch req.ProfileMode {
	case "", "measured":
		return false, nil
	case "static":
		// A static request must not also carry profiling inputs: silently
		// ignoring them would hide a client bug, so conflict loudly (the
		// engine sentinel keeps the wire kind "profile_conflict").
		if len(req.Profile) > 0 || len(req.Data) > 0 || req.N != nil {
			return false, fmt.Errorf("profile_mode \"static\" excludes profile/data/n: %w", engine.ErrProfileConflict)
		}
		return true, nil
	}
	return false, fmt.Errorf("unknown profile_mode %q (want \"measured\" or \"static\")", req.ProfileMode)
}

// engineRequest makes the cheap checks (profile mode, model, source vs
// bench, bench and data set names) and turns req into an engine request
// keyed on its own inputs. Nothing is compiled or profiled here: that is
// the request's Load, which the engine runs only on a miss, with its
// profiling run bounded by loadTimeout.
func engineRequest(req alignRequest, loadTimeout time.Duration) (engine.Request, error) {
	static, err := pickProfileMode(req)
	if err != nil {
		return engine.Request{}, err
	}
	model, err := pickModel(req.Model)
	if err != nil {
		return engine.Request{}, err
	}
	p, err := resolveProgram(req, static)
	if err != nil {
		return engine.Request{}, err
	}
	p.loadTimeout = loadTimeout
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = "tsp"
	}
	return engine.Request{
		Inputs:        p.inputs(),
		Load:          p.load,
		StaticProfile: static,
		Model:         model,
		Algorithm:     algorithm,
		Seed:          req.Seed,
		Budget:        tsp.Budget{MaxKicks: req.MaxKicks},
		Bound:         req.Bound,
		HKIterations:  req.HKIterations,
		Parallelism:   req.Parallelism,
	}, nil
}

// program is a request's program as the cheap checks resolve it, before
// anything is compiled: a bundled benchmark, or inline source with its
// data and n. It holds exactly what its load reads.
type program struct {
	bench *bench.Benchmark
	// dataset is the bench's training input; nil when load runs none
	// (static requests and shipped profiles).
	dataset *bench.DataSet
	source  string
	data    []int64
	n       *int64
	profile json.RawMessage // the shipped profile, if any
	static  bool
	// loadTimeout bounds the profiling run. It is the server's cap, not
	// the requester's deadline: coalesced followers share the leader's
	// load, so it must not end when the leader's client gives up.
	loadTimeout time.Duration
}

// resolveProgram checks the request's program fields without compiling
// anything: exactly one of source and bench, a known bench and data set.
func resolveProgram(req alignRequest, static bool) (*program, error) {
	p := &program{profile: req.Profile, static: static}
	switch {
	case req.Bench != "" && req.Source != "":
		return nil, fmt.Errorf("request has both source and bench; pick one")
	case req.Bench != "":
		b, err := bench.ByName(req.Bench)
		if err != nil {
			return nil, err
		}
		name := req.DataSet
		if name == "" {
			name = b.DataSets[0].Name
		}
		ds, err := b.DataSet(name)
		if err != nil {
			return nil, err
		}
		p.bench = b
		if !static && len(req.Profile) == 0 {
			p.dataset = ds
		}
		return p, nil
	case req.Source != "":
		p.source, p.data, p.n = req.Source, req.Data, req.N
		return p, nil
	}
	return nil, fmt.Errorf("request needs source or bench")
}

// inputs returns the program's canonical binary image, the engine's key
// material: a kind byte, then length-prefixed fields, so bytes moved
// from one field to another always change the image. A bench is named
// by its canonical name and resolved data set, so an abbreviation or an
// omitted default data set keys like the spelled-out request.
func (p *program) inputs() []byte {
	b := make([]byte, 0, 64+len(p.source)+8*len(p.data)+len(p.profile))
	if p.bench != nil {
		b = append(b, 'b')
		b = appendString(b, p.bench.Name)
		ds := ""
		if p.dataset != nil {
			ds = p.dataset.Name
		}
		b = appendString(b, ds)
	} else {
		b = append(b, 's')
		b = appendString(b, p.source)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(p.data)))
		for _, v := range p.data {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		if p.n != nil {
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint64(b, uint64(*p.n))
		} else {
			b = append(b, 0)
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p.profile)))
	return append(b, p.profile...)
}

// appendString appends s with its length prefix.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// load is the request's engine Load: compile the program, then profile
// it by running the training input or reading the shipped profile. A
// static request stops after compiling; the engine estimates its
// profile. It annotates the engine.load span sp with the input kind
// (bench or source), the profile's origin (run, shipped or static) and
// the interpreter steps a run took.
func (p *program) load(sp *obs.Span) (*ir.Module, *interp.Profile, error) {
	kind, origin := "source", "run"
	if p.bench != nil {
		kind = "bench"
	}
	switch {
	case p.static:
		origin = "static"
	case len(p.profile) > 0:
		origin = "shipped"
	}
	sp.SetAttrs(obs.String("input", kind), obs.String("profile", origin))
	mod, inputs, err := buildModule(p)
	if err != nil || p.static {
		return mod, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.loadTimeout)
	defer cancel()
	prof, steps, err := buildProfile(ctx, mod, inputs, p.profile)
	if err != nil {
		return nil, nil, err
	}
	sp.SetAttrs(obs.Int("steps", steps))
	return mod, prof, nil
}

// buildModule compiles the program — inline Mini-C source or a bundled
// benchmark — and shapes its training input.
func buildModule(p *program) (*ir.Module, []interp.Input, error) {
	if p.bench != nil {
		mod, err := p.bench.Compile()
		if err != nil || p.dataset == nil {
			return mod, nil, err
		}
		return mod, p.dataset.Make(), nil
	}
	prog, err := minic.Parse(p.source)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing source: %w", err)
	}
	info, err := minic.Check(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("checking source: %w", err)
	}
	mod, err := lower.Program(info)
	if err != nil {
		return nil, nil, fmt.Errorf("lowering source: %w", err)
	}
	inputs, err := shapeInputs(mod, p.data, p.n)
	if err != nil {
		return nil, nil, err
	}
	return mod, inputs, nil
}

// shapeInputs matches the program entry signature against the provided
// data, exactly as the balign CLI does.
func shapeInputs(mod *ir.Module, data []int64, scalarN *int64) ([]interp.Input, error) {
	entry := mod.Funcs[mod.EntryFunc]
	n := int64(len(data))
	if scalarN != nil {
		n = *scalarN
	}
	switch {
	case len(entry.Params) == 0:
		return nil, nil
	case len(entry.Params) == 1 && entry.Params[0] == ir.ParamScalar:
		return []interp.Input{interp.ScalarInput(n)}, nil
	case len(entry.Params) == 2 && entry.Params[0] == ir.ParamArray && entry.Params[1] == ir.ParamScalar:
		return []interp.Input{interp.ArrayInput(data), interp.ScalarInput(n)}, nil
	}
	return nil, fmt.Errorf("entry main must have signature (), (n) or (input[], n)")
}

// buildProfile returns the training profile, with the interpreter steps
// it took: parsed from the request when supplied (0 steps), collected by
// running the program under ctx otherwise.
func buildProfile(ctx context.Context, mod *ir.Module, inputs []interp.Input, raw json.RawMessage) (*interp.Profile, int64, error) {
	if len(raw) > 0 {
		prof, err := interp.ReadProfileJSON(bytes.NewReader(raw), mod)
		if err != nil {
			return nil, 0, fmt.Errorf("reading profile: %w", err)
		}
		return prof, 0, nil
	}
	prof := interp.NewProfile(mod)
	res, err := interp.Run(mod, inputs, interp.Options{Profile: prof, MaxSteps: 1 << 31, Context: ctx})
	if err != nil {
		return nil, 0, fmt.Errorf("profiling run failed: %w", err)
	}
	return prof, res.Steps, nil
}

func pickModel(name string) (machine.Model, error) {
	if name == "" {
		name = "alpha21164"
	}
	for _, m := range machine.Models() {
		if m.Name == name {
			return m, nil
		}
	}
	return machine.Model{}, fmt.Errorf("unknown model %q", name)
}
