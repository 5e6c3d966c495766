package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"nmdetect/internal/obs"
)

// events is one parsed obs event stream (JSONL, envelope v1): spans in the
// order they ended, counters, and value statistics.
type events struct {
	spans    []span
	counters map[string]int64
	stats    map[string]statRec
}

type span struct {
	Name string
	Ns   int64
}

type statRec struct {
	N             int64
	Sum, Min, Max float64
}

// mean is the statistic's mean, 0 for an empty one.
func (s statRec) mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// wireRec is the union of the obs record shapes the benchmark reads.
type wireRec struct {
	V    int     `json:"v"`
	Type string  `json:"type"`
	Name string  `json:"name"`
	Ns   int64   `json:"ns"`
	N    int64   `json:"n"`
	Sum  float64 `json:"sum"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// parseEvents reads an obs event stream. Records of another envelope
// version are refused: their shapes may differ.
func parseEvents(r io.Reader) (*events, error) {
	ev := &events{counters: map[string]int64{}, stats: map[string]statRec{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec wireRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("events line %d: %w", line, err)
		}
		if rec.V != obs.SchemaVersion {
			return nil, fmt.Errorf("events line %d: envelope v%d, want v%d", line, rec.V, obs.SchemaVersion)
		}
		switch rec.Type {
		case "span":
			ev.spans = append(ev.spans, span{Name: rec.Name, Ns: rec.Ns})
		case "counter":
			ev.counters[rec.Name] += rec.N
		case "stat":
			st := ev.stats[rec.Name]
			if st.N == 0 {
				st.Min, st.Max = rec.Min, rec.Max
			}
			st.N += rec.N
			st.Sum += rec.Sum
			st.Min = min(st.Min, rec.Min)
			st.Max = max(st.Max, rec.Max)
			ev.stats[rec.Name] = st
		case "manifest", "day":
		default:
			return nil, fmt.Errorf("events line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read events: %w", err)
	}
	return ev, nil
}

// merge appends another stream's records to ev.
func (ev *events) merge(o *events) {
	ev.spans = append(ev.spans, o.spans...)
	for k, v := range o.counters {
		ev.counters[k] += v
	}
	for k, v := range o.stats {
		st, seen := ev.stats[k]
		if !seen {
			ev.stats[k] = v
			continue
		}
		st.N += v.N
		st.Sum += v.Sum
		st.Min = min(st.Min, v.Min)
		st.Max = max(st.Max, v.Max)
		ev.stats[k] = st
	}
}

// spanSum is the total duration of the spans named name, in nanoseconds.
func (ev *events) spanSum(name string) int64 {
	var ns int64
	for _, s := range ev.spans {
		if s.Name == name {
			ns += s.Ns
		}
	}
	return ns
}

// spanCount is the number of spans named name.
func (ev *events) spanCount(name string) int {
	n := 0
	for _, s := range ev.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// capture attaches a fresh in-memory sink to ctx and as the process
// default, runs fn, then detaches and parses the sink's stream. The sink
// keeps spans in memory; nothing is written until fn returns.
func capture(ctx context.Context, fn func(ctx context.Context) error) (*events, error) {
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	obs.SetDefault(sink)
	err := fn(obs.With(ctx, sink))
	obs.SetDefault(nil)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return parseEvents(&buf)
}

// node is one span placed in its reconstructed tree.
type node struct {
	span
	Self     int64 // Ns minus the durations of the direct children
	Children int   // number of direct children
}

// nest rebuilds span nesting from a stream recorded by one goroutine. obs
// spans carry only a name and a duration, written when they end, so a
// parent follows its descendants and its direct children are the subtrees
// that ended inside it: a run of the most recent unclaimed subtrees. A
// subtree is claimed as a direct child when its name is one parents
// declares for the parent and its duration fits in what the parent has not
// yet accounted for; the walk stops at the first subtree that does not
// qualify, since an earlier one ended before the parent began.
//
// The result is exact when spans nest strictly (one worker) and every
// declared child of a parent ran inside it. With spans that overlap —
// several workers — self times are not meaningful; callers report summed
// busy time there instead.
func nest(spans []span, parents map[string][]string) []node {
	nodes := make([]node, len(spans))
	var roots []int // indices of subtrees not yet claimed by a parent
	for i, s := range spans {
		nodes[i] = node{span: s, Self: s.Ns}
		allowed := parents[s.Name]
		for len(roots) > 0 {
			c := roots[len(roots)-1]
			if !slices.Contains(allowed, nodes[c].Name) || nodes[c].Ns > nodes[i].Self {
				break
			}
			nodes[i].Self -= nodes[c].Ns
			nodes[i].Children++
			roots = roots[:len(roots)-1]
		}
		roots = append(roots, i)
	}
	return nodes
}

// spanParents declares which obs spans run directly inside which. It
// mirrors the call structure of the program: a game solve with Shards > 1
// runs the outer exchange, whose shard solves are game solves again; a
// monitored day prepares the day, solves the kit's expected profile and
// simulates the day.
var spanParents = map[string][]string{
	"game.solve":          {"game.solve.outer"},
	"game.solve.outer":    {"game.solve"},
	"engine.simulate_day": {"game.solve"},
	"engine.monitor_day":  {"engine.prepare_day", "engine.simulate_day", "game.solve"},
}

// nsOf collects the durations (or self times, when self is set) of the
// nodes named name, in milliseconds; leafOnly keeps nodes without children.
func nsOf(nodes []node, name string, self, leafOnly bool) []float64 {
	var out []float64
	for _, n := range nodes {
		if n.Name != name || (leafOnly && n.Children > 0) {
			continue
		}
		v := n.Ns
		if self {
			v = n.Self
		}
		out = append(out, float64(v)/1e6)
	}
	return out
}
