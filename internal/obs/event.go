package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Event is one telemetry record. Which fields are meaningful depends on
// Type:
//
//	"span"     ID, Parent, StartUS, DurUS, Attrs
//	"series"   Parent (owning span), Points
//	"counter"  Count
//	"hist"     Count, Buckets (non-empty only), Attrs (mean)
//
// Events marshal to single-line JSON objects; a trace file is
// newline-delimited JSON (NDJSON), one event per line.
type Event struct {
	Type    string         `json:"type"`
	Name    string         `json:"name"`
	ID      int64          `json:"id,omitempty"`
	Parent  int64          `json:"parent,omitempty"`
	StartUS int64          `json:"start_us,omitempty"`
	DurUS   int64          `json:"dur_us,omitempty"`
	Count   int64          `json:"count,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Points  [][2]float64   `json:"points,omitempty"`
	Buckets []Bucket       `json:"buckets,omitempty"`
}

// Bucket is one histogram bucket: N samples with value <= Le (and
// greater than the previous bucket's bound).
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// Str returns the named attribute as a string ("" when absent or not a
// string).
func (e Event) Str(key string) string {
	s, _ := e.Attrs[key].(string)
	return s
}

// Int returns the named attribute as an int64. JSON decoding turns
// numbers into float64, so both live and round-tripped events work.
func (e Event) Int(key string) int64 {
	switch v := e.Attrs[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(v)
	}
	return 0
}

// Float returns the named attribute as a float64.
func (e Event) Float(key string) float64 {
	switch v := e.Attrs[key].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	}
	return 0
}

// Bool returns the named attribute as a bool.
func (e Event) Bool(key string) bool {
	b, _ := e.Attrs[key].(bool)
	return b
}

// Has reports whether the named attribute is present.
func (e Event) Has(key string) bool {
	_, ok := e.Attrs[key]
	return ok
}

// ReadEvents decodes an NDJSON event stream (the output of NDJSONSink),
// tolerating trailing whitespace. It returns the events read so far
// alongside any decode error.
func ReadEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var events []Event
	for {
		var e Event
		err := dec.Decode(&e)
		if errors.Is(err, io.EOF) {
			return events, nil
		}
		if err != nil {
			return events, fmt.Errorf("obs: reading event %d: %w", len(events)+1, err)
		}
		events = append(events, e)
	}
}
