package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"branchalign/internal/engine"
	"branchalign/internal/obs"
)

// alignResponse is the subset of balignd's /v1/align response the
// benchmark checks and measures.
type alignResponse struct {
	Penalty         int64             `json:"penalty"`
	OriginalPenalty int64             `json:"original_penalty"`
	Bound           int64             `json:"bound"`
	Truncated       bool              `json:"truncated"`
	CacheHit        bool              `json:"cache_hit"`
	Coalesced       bool              `json:"coalesced"`
	Funcs           []engine.FuncStat `json:"funcs"`
	ElapsedMS       float64           `json:"elapsed_ms"`
	TraceEvents     []obs.Event       `json:"trace_events"`
}

// sample is one request as the client saw it.
type sample struct {
	idx     int // position in the phase's request order
	it      *item
	latency time.Duration // send until the full body was read
	size    int           // response body bytes
	err     error         // transport error, non-200, or undecodable body
	resp    *alignResponse
}

// drive runs a closed loop: each of clients goroutines sends its next
// request only after the previous one completed. pick returns the i-th
// request, or false to stop issuing. It returns the samples in index
// order and the wall time from the first send to the last completion.
func drive(ctx context.Context, d *daemon, clients int, trace bool, pick func(i int) (*item, bool)) ([]sample, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				i := int(next.Add(1) - 1)
				it, ok := pick(i)
				if !ok {
					break
				}
				s := d.align(ctx, it, trace)
				s.idx = i
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out, wall
}

// align sends one request and times it from send to full body read.
func (d *daemon) align(ctx context.Context, it *item, trace bool) sample {
	s := sample{it: it}
	body := it.body
	if trace {
		body = it.tbody
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/align", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := d.http.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(t0)
	s.size = len(raw)
	switch {
	case err != nil:
		s.err = fmt.Errorf("reading response: %w", err)
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	default:
		var r alignResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			s.err = fmt.Errorf("decoding response: %w", err)
		} else {
			s.resp = &r
		}
	}
	return s
}

// timed returns a pick function over seq from index from on. It stops
// after max requests (max <= 0 for no cap) or once dur has elapsed since
// the first call.
func timed(seq *sequence, from int, dur time.Duration, max int) func(int) (*item, bool) {
	var once sync.Once
	var start time.Time
	return func(i int) (*item, bool) {
		once.Do(func() { start = time.Now() })
		if (max > 0 && i >= max) || time.Since(start) >= dur {
			return nil, false
		}
		it, err := seq.at(from + i)
		if err != nil {
			return nil, false
		}
		return it, true
	}
}

// fixed returns a pick function over a fixed request list.
func fixed(items []*item) func(int) (*item, bool) {
	return func(i int) (*item, bool) {
		if i >= len(items) {
			return nil, false
		}
		return items[i], true
	}
}
