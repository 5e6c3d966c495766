// Package obs is the run-scoped observability layer: a structured JSONL
// event sink plus cheap counters, value statistics, stage spans and per-day
// records that the solvers and the monitoring engine emit while a run is in
// flight.
//
// The layer is built around two hard contracts:
//
//   - Disabled is free. Every method on a nil *Sink is a no-op that performs
//     zero heap allocations (asserted by a benchmark test), so call sites
//     instrument unconditionally and pay nothing when no sink is attached.
//
//   - Instrumentation is bitwise non-intrusive. The sink only ever reads
//     values the computation already produced; it never draws from an RNG
//     stream, never reorders floating-point accumulation, and never feeds
//     anything back into the run. A run with events disabled is gob-byte
//     identical to the same run before this layer existed (test-enforced,
//     mirroring the Workers and fault-injection determinism contracts).
//
// Events are newline-delimited JSON records sharing a versioned envelope
// ({"v":1,"type":...}). Manifest, span and day records are written in the
// order they occur; counters and value statistics are aggregated in memory
// and flushed sorted by name when the sink is closed, so two runs of the
// same scenario produce the same aggregate records regardless of goroutine
// interleaving.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// SchemaVersion is the event-envelope version stamped on every record. Bump
// it when a record shape changes incompatibly.
const SchemaVersion = 1

// Manifest identifies a run: which command produced it, which scenario and
// seed it solved, and the worker budget it ran with. It is the first record
// of every event stream.
type Manifest struct {
	Cmd        string `json:"cmd"`
	ScenarioID string `json:"scenario_id,omitempty"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"workers"`
}

// DayRecord summarizes one monitored day: what the detector flagged, how
// many readings the imputer had to reconstruct, and how confident the day's
// verdicts are.
type DayRecord struct {
	Day         int     `json:"day"`
	Kit         string  `json:"kit"`
	Flagged     int     `json:"flagged"`
	Imputed     int     `json:"imputed"`
	Inspections int     `json:"inspections"`
	Degraded    bool    `json:"degraded"`
	Confidence  float64 `json:"confidence"`
}

// stat is the in-memory aggregate behind Observe: count, sum and extrema of
// every finite value reported under one name.
type stat struct {
	count    int64
	sum      float64
	min, max float64
}

// Sink writes the event stream. All methods are safe for concurrent use and
// safe on a nil receiver (no-ops).
type Sink struct {
	mu       sync.Mutex
	w        *bufio.Writer
	enc      *json.Encoder
	closer   io.Closer
	now      func() time.Time
	counters map[string]int64
	stats    map[string]*stat
	closed   bool
	err      error
}

// noop is the span-end function handed out by a nil sink. Package-level so
// the disabled path allocates nothing.
var noop = func() {}

// NewSink wraps w in an event sink. If w is also an io.Closer it is closed
// by Close.
func NewSink(w io.Writer) *Sink {
	bw := bufio.NewWriter(w)
	s := &Sink{
		w:        bw,
		enc:      json.NewEncoder(bw),
		now:      time.Now,
		counters: make(map[string]int64),
		stats:    make(map[string]*stat),
	}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	return s
}

// Open creates (or truncates) the JSONL event file at path and returns a
// sink writing to it.
func Open(path string) (*Sink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open event sink: %w", err)
	}
	return NewSink(f), nil
}

// manifestRec, spanRec, counterRec, statRec and dayRec are the wire shapes.
// Every record carries the envelope fields V and Type first.
type manifestRec struct {
	V          int    `json:"v"`
	Type       string `json:"type"`
	Cmd        string `json:"cmd"`
	ScenarioID string `json:"scenario_id,omitempty"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"workers"`
}

type spanRec struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

type counterRec struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	Name string `json:"name"`
	N    int64  `json:"n"`
}

type statRec struct {
	V    int     `json:"v"`
	Type string  `json:"type"`
	Name string  `json:"name"`
	N    int64   `json:"n"`
	Sum  float64 `json:"sum"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

type dayRec struct {
	V           int     `json:"v"`
	Type        string  `json:"type"`
	Day         int     `json:"day"`
	Kit         string  `json:"kit"`
	Flagged     int     `json:"flagged"`
	Imputed     int     `json:"imputed"`
	Inspections int     `json:"inspections"`
	Degraded    bool    `json:"degraded"`
	Confidence  float64 `json:"confidence"`
}

// emit writes one record under the lock, remembering the first error.
func (s *Sink) emit(rec any) {
	if s.closed {
		return
	}
	if err := s.enc.Encode(rec); err != nil && s.err == nil {
		s.err = err
	}
}

// WriteManifest emits the run-manifest record. Call it once, first.
func (s *Sink) WriteManifest(m Manifest) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit(manifestRec{
		V: SchemaVersion, Type: "manifest",
		Cmd: m.Cmd, ScenarioID: m.ScenarioID, Seed: m.Seed, Workers: m.Workers,
	})
}

// Count adds n to the named counter. Counters are flushed sorted by name
// when the sink is closed.
func (s *Sink) Count(name string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counters[name] += n
	s.mu.Unlock()
}

// Observe folds a value into the named statistic (count/sum/min/max).
// Non-finite values are dropped: the stream must stay encodable as JSON,
// which cannot represent NaN or Inf.
func (s *Sink) Observe(name string, v float64) {
	if s == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.mu.Lock()
	st := s.stats[name]
	if st == nil {
		st = &stat{min: v, max: v}
		s.stats[name] = st
	}
	st.count++
	st.sum += v
	if v < st.min {
		st.min = v
	}
	if v > st.max {
		st.max = v
	}
	s.mu.Unlock()
}

// Span starts a named stage timer and returns the function that ends it,
// emitting a span record with the elapsed nanoseconds:
//
//	defer sink.Span("core.bootstrap")()
//
// On a nil sink the returned function is a shared no-op (no allocation).
func (s *Sink) Span(name string) func() {
	if s == nil {
		return noop
	}
	start := s.now()
	return func() {
		ns := s.now().Sub(start).Nanoseconds()
		s.mu.Lock()
		s.emit(spanRec{V: SchemaVersion, Type: "span", Name: name, Ns: ns})
		s.mu.Unlock()
	}
}

// Day emits a per-day monitoring record.
func (s *Sink) Day(d DayRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.emit(dayRec{
		V: SchemaVersion, Type: "day",
		Day: d.Day, Kit: d.Kit, Flagged: d.Flagged, Imputed: d.Imputed,
		Inspections: d.Inspections, Degraded: d.Degraded, Confidence: d.Confidence,
	})
	s.mu.Unlock()
}

// Close flushes the aggregated counters and statistics (sorted by name, so
// the tail of the stream is deterministic), flushes the writer, and closes
// the underlying file if the sink owns one. It returns the first error the
// sink encountered. Closing twice is safe.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	names := make([]string, 0, len(s.counters))
	for name := range s.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.emit(counterRec{V: SchemaVersion, Type: "counter", Name: name, N: s.counters[name]})
	}
	names = names[:0]
	for name := range s.stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := s.stats[name]
		s.emit(statRec{
			V: SchemaVersion, Type: "stat", Name: name,
			N: st.count, Sum: st.sum, Min: st.min, Max: st.max,
		})
	}
	s.closed = true
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.closer != nil {
		if err := s.closer.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	if s.err != nil {
		return fmt.Errorf("obs: event sink: %w", s.err)
	}
	return nil
}
