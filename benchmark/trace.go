package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"branchalign/internal/interp"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
	"branchalign/internal/obs"
	"branchalign/internal/staticprof"
)

// span is one interval of the benchmark's trace file. Times are in
// microseconds from the start of the traced pass; self is the duration
// minus the part of it the span's children cover.
type span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	SelfUS  int64          `json:"self_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// traceRun is the per-layer run. It sends the workload's set-up and
// first w.traced timed requests twice, each time on a fresh daemon:
// untraced (counter deltas, wire and server time), then with
// "trace":true (the daemon's spans). It then times the public front-end
// functions in-process on every distinct program the traced pass sent.
func traceRun(ctx context.Context, o options, w *workload, clients int, bin string, rep report) error {
	n := w.traced
	if o.maxRequests > 0 {
		n = o.maxRequests
	}
	passTime := time.Duration(o.seconds) * time.Second / 2

	d, setupU, _, err := setUp(ctx, w, clients, bin, false)
	if err != nil {
		return err
	}
	c0, err := d.counters(ctx)
	if err != nil {
		d.stop()
		return err
	}
	plain, _ := drive(ctx, d, clients, false, timed(w.seq, 0, passTime, n))
	c1, err := d.counters(ctx)
	d.stop()
	if err != nil {
		return err
	}

	d, setupT, _, err := setUp(ctx, w, clients, bin, true)
	if err != nil {
		return err
	}
	traced, _ := drive(ctx, d, clients, true, timed(w.seq, 0, passTime, n))
	d.stop()

	all := append(append(append(append([]sample(nil), setupU...), plain...), setupT...), traced...)
	failed := verify(all, rep)
	rep.res.Attempted = len(all)
	rep.res.Failed = failed
	rep.res.Correct = failed == 0

	// Untraced pass: wire and server time, response size, counter deltas.
	var wire, server, kb []float64
	for _, s := range plain {
		if s.resp != nil {
			wire = append(wire, ms(s.latency)-s.resp.ElapsedMS)
			server = append(server, s.resp.ElapsedMS)
			kb = append(kb, float64(s.size)/1024)
		}
	}
	rep.add("balignd.wire_ms_p50", median(wire), "ms", "untraced")
	rep.add("balignd.response_kb_p50", median(kb), "KB", "untraced")
	rep.add("balignd.server_ms_p50", median(server), "ms", "untraced")
	reqs := c1.Engine.Requests - c0.Engine.Requests
	rep.add("engine.cache_hit_ratio", ratio(c1.Engine.CacheHits-c0.Engine.CacheHits, reqs), "ratio", fmt.Sprintf("of %d engine requests", reqs))
	rep.add("engine.coalesced", float64(c1.Engine.Coalesced-c0.Engine.Coalesced), "count", "")
	rep.add("engine.evictions", c1.evictions-c0.evictions, "count", "")
	rep.add("engine.solves", float64(c1.Engine.Solved-c0.Engine.Solved), "count", "")
	// Pool tasks only queue during solves, which on hot_bundled happen
	// while priming, so the share covers the whole pass from the fresh
	// daemon's zero. With one client no task ever waits.
	rep.add("work.queue_wait_share", c1.waitSum/max(c1.engineSum, 1e-9), "ratio", "queued time / engine time, set-up included")
	var bpen, bnd int64
	for _, s := range plain {
		if s.resp != nil && s.it.bound {
			bpen += s.resp.Penalty
			bnd += s.resp.Bound
		}
	}
	rep.add("bound_gap_pct", 100*ratio(bpen-bnd, bpen), "%", "(penalty - bound) / penalty over bound requests")

	// Traced pass: the daemon's spans under the benchmark's own.
	tracedAll := append(append([]sample(nil), setupT...), traced...)
	spans, agg := requestSpans(tracedAll)
	lastID := int64(0)
	for _, s := range spans {
		lastID = max(lastID, s.ID)
	}
	fe, feSpans := frontEnd(tracedAll, lastID)
	spans = append(spans, feSpans...)
	selfTimes(spans)
	per := float64(max(len(tracedAll), 1))
	note := fmt.Sprintf("mean of %d traced requests", len(tracedAll))
	rep.add("balignd.pre_engine_ms", agg.preEngine/per, "ms", note)
	rep.add("engine.self_ms", sumMS(spans, "balignd.align", true)/per, "ms", note)
	rep.add("align.build_matrix_ms", sumMS(spans, "align.build_matrix", false)/per, "ms", note)
	rep.add("align.func_self_ms", sumMS(spans, "align.func", true)/per, "ms", note)
	rep.add("tsp.solve_ms", sumMS(spans, "tsp.solve", false)/per, "ms", note)
	rep.add("tsp.kicks", agg.counts["tsp.kicks"]/per, "count", note)
	rep.add("tsp.move_accept_ratio", agg.counts["tsp.moves_accepted"]/max(agg.counts["tsp.moves_tried"], 1), "ratio", "")
	rep.add("tsp.heldkarp_ms", sumMS(spans, "tsp.heldkarp", false)/per, "ms", note)
	rep.add("tsp.hk_iters", agg.counts["hk.iterations"]/per, "count", note)
	rep.add("minic.parse_ms", fe.parse/per, "ms", note)
	rep.add("minic.check_ms", fe.check/per, "ms", note)
	rep.add("lower.program_ms", fe.lower/per, "ms", note)
	rep.add("lower.blocks", fe.blocks/per, "count", note)
	rep.add("interp.run_ms", fe.run/per, "ms", note)
	rep.add("interp.steps_m", fe.steps/per/1e6, "Msteps", note)
	rep.add("interp.read_profile_ms", fe.readProfile/per, "ms", note)
	rep.add("staticprof.estimate_ms", fe.estimate/per, "ms", note)

	m := min(len(plain), len(traced))
	rep.add("trace.overhead_pct", 100*(okMedian(traced[:m])/okMedian(plain[:m])-1), "%", fmt.Sprintf("p50 over the first %d requests", m))

	return writeSpans(o.root, w.name, spans)
}

func okMedian(ss []sample) float64 {
	var lat []float64
	for _, s := range ss {
		if s.resp != nil {
			lat = append(lat, ms(s.latency))
		}
	}
	return median(lat)
}

type spanTotals struct {
	preEngine float64            // ms
	counts    map[string]float64 // the daemon's trace counters, summed
}

// requestSpans lays out each traced request as a "request" span with
// three children: balignd.wire (client latency minus the server's
// elapsed_ms), balignd.pre_engine (elapsed_ms minus the daemon's
// balignd.align root span: decode, compile, profile) and the daemon's
// own span tree. The wire time really splits around the server time; it
// is drawn first because only its total is known.
func requestSpans(ss []sample) ([]span, spanTotals) {
	var out []span
	agg := spanTotals{counts: map[string]float64{}}
	var clock int64
	next := int64(1)
	for _, s := range ss {
		if s.resp == nil {
			continue
		}
		lat := s.latency.Microseconds()
		elapsed := int64(s.resp.ElapsedMS * 1000)
		var root *obs.Event
		for i := range s.resp.TraceEvents {
			e := &s.resp.TraceEvents[i]
			switch {
			case e.Type == "span" && e.Name == "balignd.align":
				root = e
			case e.Type == "counter":
				agg.counts[e.Name] += float64(e.Count)
			}
		}
		if root == nil {
			continue
		}
		wire, pre := lat-elapsed, elapsed-root.DurUS
		agg.preEngine += float64(pre) / 1000
		req := next
		out = append(out,
			span{ID: req, Name: "request", StartUS: clock, DurUS: lat, Attrs: map[string]any{"program": s.it.prog.name}},
			span{ID: req + 1, Parent: req, Name: "balignd.wire", StartUS: clock, DurUS: wire},
			span{ID: req + 2, Parent: req, Name: "balignd.pre_engine", StartUS: clock + wire, DurUS: pre})
		// Daemon span IDs are per request; shift them past ours and move
		// the tree so its root starts where pre_engine ends.
		base, shift := req+2, clock+wire+pre-root.StartUS
		maxID := int64(0)
		for _, e := range s.resp.TraceEvents {
			if e.Type != "span" {
				continue
			}
			parent := e.Parent + base
			if e.ID == root.ID {
				parent = req
			}
			out = append(out, span{ID: e.ID + base, Parent: parent, Name: e.Name,
				StartUS: e.StartUS + shift, DurUS: e.DurUS, Attrs: e.Attrs})
			maxID = max(maxID, e.ID)
		}
		next = base + maxID + 1
		clock += lat
	}
	return out, agg
}

// frontEndTotals sums, over traced requests, the in-process cost of each
// front-end function on the request's program.
type frontEndTotals struct {
	parse, check, lower, run, readProfile, estimate float64 // ms
	blocks, steps                                   float64
}

// frontEnd times minic.Parse, minic.Check, lower.Program, interp.Run,
// interp.ReadProfileJSON and staticprof.Estimate once per distinct
// program, with the daemon stopped, and charges each request its
// program's costs. interp.Run profiles the request's training input (on
// synth_recorded, the recording run the daemon is spared) and
// ReadProfileJSON reads that profile back; static requests have neither.
// Spans are numbered from firstID.
func frontEnd(ss []sample, firstID int64) (frontEndTotals, []span) {
	costs := map[*program]*frontEndTotals{}
	var spans []span
	id := firstID + 1
	var clock int64
	for _, s := range ss {
		p := s.it.prog
		if costs[p] != nil {
			continue
		}
		c := &frontEndTotals{}
		costs[p] = c
		root := id
		id++
		start := clock
		step := func(name string, f func() error) float64 {
			t0 := time.Now()
			err := f()
			d := time.Since(t0)
			sp := span{ID: id, Parent: root, Name: name, StartUS: clock, DurUS: d.Microseconds()}
			if err != nil {
				sp.Attrs = map[string]any{"error": err.Error()}
			}
			spans = append(spans, sp)
			id++
			clock += d.Microseconds()
			return ms(d)
		}
		var prog *minic.Program
		var info *minic.Info
		c.parse = step("minic.parse", func() (err error) { prog, err = minic.Parse(p.source); return })
		c.check = step("minic.check", func() (err error) { info, err = minic.Check(prog); return })
		c.lower = step("lower.program", func() error { _, err := lower.Program(info); return err })
		for _, f := range p.mod.Funcs {
			c.blocks += float64(len(f.Blocks))
		}
		if !p.static {
			prof := interp.NewProfile(p.mod)
			c.run = step("interp.run", func() error {
				r, err := interp.Run(p.mod, p.inputs, interp.Options{Profile: prof, MaxSteps: 1 << 31})
				c.steps = float64(r.Steps)
				return err
			})
			raw := p.profJSON
			if raw == nil {
				var buf bytes.Buffer
				if err := prof.WriteJSON(&buf); err == nil {
					raw = buf.Bytes()
				}
			}
			c.readProfile = step("interp.read_profile", func() error {
				_, err := interp.ReadProfileJSON(bytes.NewReader(raw), p.mod)
				return err
			})
		}
		c.estimate = step("staticprof.estimate", func() error { staticprof.Estimate(p.mod); return nil })
		spans = append(spans, span{ID: root, Name: "frontend", StartUS: start, DurUS: clock - start,
			Attrs: map[string]any{"program": p.name}})
	}
	var tot frontEndTotals
	for _, s := range ss {
		if s.resp == nil {
			continue
		}
		c := costs[s.it.prog]
		tot.parse += c.parse
		tot.check += c.check
		tot.lower += c.lower
		tot.run += c.run
		tot.readProfile += c.readProfile
		tot.estimate += c.estimate
		tot.blocks += c.blocks
		tot.steps += c.steps
	}
	return tot, spans
}

// selfTimes sets each span's SelfUS to its duration minus the union of
// its children's intervals, clipped to the span.
func selfTimes(spans []span) {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	for i := range spans {
		s := &spans[i]
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := int64(0), lo
		for _, c := range iv {
			a, b := max(c[0], end), min(c[1], hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		s.SelfUS = s.DurUS - covered
	}
}

// sumMS returns the summed duration, or self time, of the spans named
// name in ms.
func sumMS(spans []span, name string, self bool) float64 {
	t := int64(0)
	for _, s := range spans {
		switch {
		case s.Name != name:
		case self:
			t += s.SelfUS
		default:
			t += s.DurUS
		}
	}
	return float64(t) / 1000
}

// writeSpans writes the traced run's spans to
// benchmark/results/trace-<workload>.json under root.
func writeSpans(root, workload string, spans []span) error {
	dir := filepath.Join(root, "benchmark", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
