package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Sink receives completed telemetry events. The Trace serializes Emit
// calls, so implementations need no locking of their own for use under
// a Trace (MemorySink locks anyway so tests may emit directly).
type Sink interface {
	Emit(Event)
}

// MemorySink collects events in memory — the test sink, also used by
// `balign report` to render tables from an in-process run.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (m *MemorySink) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the collected events in emission order.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Len returns the number of collected events.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// NDJSONSink streams events as newline-delimited JSON, one event per
// line — the interchange format `balign --trace` writes and
// `balign report -in` / ReadEvents consume. Writes are buffered; call
// Close (Trace.Close does) to flush. The first write error sticks and
// subsequent events are dropped; Close returns it.
type NDJSONSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int64
	err error
}

// NewNDJSONSink returns a sink writing to w. The caller retains
// ownership of w (e.g. closing the underlying file).
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	bw := bufio.NewWriter(w)
	return &NDJSONSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink.
func (s *NDJSONSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(e); err != nil {
		s.err = err
		return
	}
	s.n++
}

// Count returns the number of events successfully encoded.
func (s *NDJSONSink) Count() int64 { return s.n }

// Close flushes buffered output and returns the first error seen.
func (s *NDJSONSink) Close() error {
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}
