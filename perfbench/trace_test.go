package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"nmdetect/internal/obs"
)

// ms2ns turns milliseconds into the nanosecond durations obs records.
func ms2ns(v float64) int64 { return int64(v * 1e6) }

func TestNestSelfTimeSubtractsEnclosedChildren(t *testing.T) {
	// One monitored day of a sharded community, as one worker emits it:
	// spans appear when they end, so children precede their parent.
	spans := []span{
		{"engine.prepare_day", ms2ns(1)},
		{"game.solve", ms2ns(10)}, // shard 0
		{"game.solve", ms2ns(12)}, // shard 1
		{"game.solve.outer", ms2ns(25)},
		{"game.solve", ms2ns(26)}, // the top-level solve around the exchange
		{"engine.simulate_day", ms2ns(30)},
		{"engine.monitor_day", ms2ns(40)},
	}
	nodes := nest(spans, spanParents)
	want := []struct {
		self     float64
		children int
	}{
		{1, 0}, {10, 0}, {12, 0}, {3, 2}, {1, 1}, {4, 1}, {9, 2},
	}
	for i, w := range want {
		if got := float64(nodes[i].Self) / 1e6; math.Abs(got-w.self) > 1e-9 || nodes[i].Children != w.children {
			t.Errorf("%s #%d: self %v ms with %d children, want %v ms with %d",
				nodes[i].Name, i, got, nodes[i].Children, w.self, w.children)
		}
	}
	if leaf := nsOf(nodes, "game.solve", false, true); len(leaf) != 2 || leaf[0] != 10 || leaf[1] != 12 {
		t.Errorf("leaf game solves = %v, want [10 12]", leaf)
	}
	if self := nsOf(nodes, "game.solve.outer", true, false); len(self) != 1 || math.Abs(self[0]-3) > 1e-9 {
		t.Errorf("outer self time = %v, want [3]", self)
	}
}

func TestNestStopsAtSpansThatEndedBeforeTheParent(t *testing.T) {
	spans := []span{
		{"game.solve", ms2ns(50)}, // an earlier day's solve: longer than the parent
		{"game.solve", ms2ns(5)},
		{"engine.simulate_day", ms2ns(8)},
		{"unrelated", ms2ns(1)},
		{"engine.simulate_day", ms2ns(3)}, // may not reach across "unrelated"
	}
	nodes := nest(spans, spanParents)
	if nodes[2].Children != 1 || nodes[2].Self != ms2ns(3) {
		t.Errorf("first simulate_day: %d children, self %d ns; want 1 child, 3 ms", nodes[2].Children, nodes[2].Self)
	}
	if nodes[4].Children != 0 || nodes[4].Self != ms2ns(3) {
		t.Errorf("second simulate_day claimed across an undeclared span: %+v", nodes[4])
	}
}

func TestParseEventsReadsCountersStatsAndSpans(t *testing.T) {
	stream := strings.Join([]string{
		`{"v":1,"type":"manifest","cmd":"nmserve","seed":0,"workers":0}`,
		`{"v":1,"type":"span","name":"core.bootstrap","ns":1500000000}`,
		`{"v":1,"type":"day","day":0,"kit":"aware","flagged":1,"imputed":0,"inspections":0,"degraded":false,"confidence":1}`,
		`{"v":1,"type":"span","name":"core.bootstrap","ns":500000000}`,
		``,
		`{"v":1,"type":"counter","name":"checkpoint.saves","n":98}`,
		`{"v":1,"type":"stat","name":"checkpoint.save_seconds","n":4,"sum":0.02,"min":0.001,"max":0.01}`,
	}, "\n")
	ev, err := parseEvents(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.spanSum("core.bootstrap"); got != 2e9 || ev.spanCount("core.bootstrap") != 2 {
		t.Errorf("bootstrap spans sum to %d ns over %d spans, want 2e9 over 2", got, ev.spanCount("core.bootstrap"))
	}
	if ev.counters["checkpoint.saves"] != 98 {
		t.Errorf("counters %v", ev.counters)
	}
	st := ev.stats["checkpoint.save_seconds"]
	if st.N != 4 || math.Abs(st.mean()-0.005) > 1e-12 || st.Min != 0.001 || st.Max != 0.01 {
		t.Errorf("save stat = %+v (mean %v)", st, st.mean())
	}
	if (statRec{}).mean() != 0 {
		t.Error("an empty stat should have mean 0")
	}

	other := &events{counters: map[string]int64{"checkpoint.saves": 2}, stats: map[string]statRec{
		"checkpoint.save_seconds": {N: 1, Sum: 0.03, Min: 0.03, Max: 0.03},
	}}
	ev.merge(other)
	st = ev.stats["checkpoint.save_seconds"]
	if ev.counters["checkpoint.saves"] != 100 || st.N != 5 || st.Max != 0.03 || math.Abs(st.Sum-0.05) > 1e-12 {
		t.Errorf("merged: saves %d, stat %+v", ev.counters["checkpoint.saves"], st)
	}
}

func TestParseEventsRefusesOtherVersionsAndShapes(t *testing.T) {
	for _, bad := range []string{
		`{"v":2,"type":"span","name":"x","ns":1}`,
		`{"v":1,"type":"histogram","name":"x"}`,
		`{"v":1,"type":"span",`,
	} {
		if _, err := parseEvents(strings.NewReader(bad)); err == nil {
			t.Errorf("parseEvents(%s) accepted", bad)
		}
	}
}

func TestCaptureReadsTheProgramsOwnSink(t *testing.T) {
	ev, err := capture(context.Background(), func(ctx context.Context) error {
		end := obs.From(ctx).Span("engine.monitor_day")
		obs.Default().Count("game.sweeps", 3)
		obs.From(ctx).Observe("parallel.occupancy", 2)
		end()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Default() != nil {
		t.Error("capture left its sink installed as the process default")
	}
	if ev.spanCount("engine.monitor_day") != 1 || ev.counters["game.sweeps"] != 3 || ev.stats["parallel.occupancy"].mean() != 2 {
		t.Errorf("captured %+v", ev)
	}
}

// TestBenchmarkFileNamesTheReportedMetrics keeps BENCHMARK.json and the
// harness's metric tables in step.
func TestBenchmarkFileNamesTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the harness:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", c.what, len(c.file), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.file[i].Name != d.name || c.file[i].Unit != d.unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s [%s], harness %s [%s]", c.what, i, c.file[i].Name, c.file[i].Unit, d.name, d.unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload #%d: BENCHMARK.json %q, harness %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
