package obs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEventSchemaGolden pins the exact wire format of every record type.
// The clock is fixed so span durations are deterministic; a change to any
// line here is a schema change and must bump SchemaVersion.
func TestEventSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.now = func() time.Time { return time.Unix(0, 0) }

	s.WriteManifest(Manifest{Cmd: "nmrepro", ScenarioID: "abc123", Seed: 42, Workers: 4})
	s.Span("core.bootstrap")()
	s.Day(DayRecord{Day: 3, Kit: "net-metering-aware", Flagged: 2, Imputed: 5, Inspections: 1, Degraded: true, Confidence: 0.875})
	s.Count("game.sweeps", 3)
	s.Count("game.sweeps", 2)
	s.Observe("game.sweep.residual", 0.5)
	s.Observe("game.sweep.residual", 0.25)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	want := strings.Join([]string{
		`{"v":1,"type":"manifest","cmd":"nmrepro","scenario_id":"abc123","seed":42,"workers":4}`,
		`{"v":1,"type":"span","name":"core.bootstrap","ns":0}`,
		`{"v":1,"type":"day","day":3,"kit":"net-metering-aware","flagged":2,"imputed":5,"inspections":1,"degraded":true,"confidence":0.875}`,
		`{"v":1,"type":"counter","name":"game.sweeps","n":5}`,
		`{"v":1,"type":"stat","name":"game.sweep.residual","n":2,"sum":0.75,"min":0.25,"max":0.5}`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("event stream mismatch:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestCloseEmitsSortedAggregates verifies the aggregate tail is ordered by
// name regardless of emission order, so event streams are comparable across
// runs with different goroutine interleavings.
func TestCloseEmitsSortedAggregates(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.Count("zzz", 1)
	s.Count("aaa", 1)
	s.Observe("mmm", 1)
	s.Observe("bbb", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantOrder := []string{`"aaa"`, `"zzz"`, `"bbb"`, `"mmm"`}
	if len(lines) != len(wantOrder) {
		t.Fatalf("got %d records, want %d:\n%s", len(lines), len(wantOrder), buf.String())
	}
	for i, name := range wantOrder {
		if !strings.Contains(lines[i], name) {
			t.Errorf("record %d = %s, want name %s", i, lines[i], name)
		}
	}
}

// TestObserveDropsNonFinite: NaN/Inf must never reach the JSON encoder.
func TestObserveDropsNonFinite(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.Observe("x", math.NaN())
	s.Observe("x", math.Inf(1))
	s.Observe("x", math.Inf(-1))
	s.Observe("x", 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"type":"stat","name":"x","n":1,"sum":2,"min":2,"max":2}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestNilSinkSafe: every method must be a no-op on a nil sink, including
// the returned span-end function.
func TestNilSinkSafe(t *testing.T) {
	var s *Sink
	s.WriteManifest(Manifest{})
	s.Count("a", 1)
	s.Observe("b", 2)
	s.Span("c")()
	s.Day(DayRecord{})
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// TestNilSinkZeroAlloc enforces the "disabled is free" contract: the hot
// instrumentation calls must not allocate when no sink is attached.
func TestNilSinkZeroAlloc(t *testing.T) {
	var s *Sink
	ctx := context.Background()
	cases := map[string]func(){
		"Count":   func() { s.Count("game.sweeps", 1) },
		"Observe": func() { s.Observe("game.sweep.residual", 0.5) },
		"Span":    func() { s.Span("game.solve")() },
		"From":    func() { From(ctx).Count("x", 1) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s on nil sink: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestConcurrentSink hammers one sink from many goroutines; run under
// -race (make check does) to verify the locking discipline.
func TestConcurrentSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Count("shared.counter", 1)
				s.Count(fmt.Sprintf("per-goroutine.%d", g), 1)
				s.Observe("shared.stat", float64(i))
				s.Span("shared.span")()
				s.Day(DayRecord{Day: i, Kit: "k"})
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"shared.counter","n":1600`) {
		t.Errorf("shared counter total missing or wrong:\n%s", tail(buf.String(), 12))
	}
}

// tail returns the last n lines of s for compact failure messages.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// TestContextThreading covers With/From/Default precedence.
func TestContextThreading(t *testing.T) {
	if got := From(context.Background()); got != nil {
		t.Errorf("From(background) = %v, want nil with no default", got)
	}
	if got := From(nil); got != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Errorf("From(nil) = %v, want nil", got)
	}

	s := NewSink(&bytes.Buffer{})
	ctx := With(context.Background(), s)
	if got := From(ctx); got != s {
		t.Errorf("From(With(ctx, s)) = %v, want the attached sink", got)
	}

	d := NewSink(&bytes.Buffer{})
	SetDefault(d)
	defer SetDefault(nil)
	if got := From(context.Background()); got != d {
		t.Errorf("From(background) = %v, want the default sink", got)
	}
	if got := From(ctx); got != s {
		t.Errorf("context sink must win over the default")
	}
	if got := Default(); got != d {
		t.Errorf("Default() = %v, want the installed sink", got)
	}
}

// TestCloseIdempotent: double close must not double-emit aggregates.
func TestCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.Count("a", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Errorf("second Close emitted %d more bytes", buf.Len()-n)
	}
}

// TestSetupShutdownNoop: a fully empty RunConfig must be free and Shutdown
// idempotent.
func TestSetupShutdownNoop(t *testing.T) {
	if err := Setup(RunConfig{Cmd: "test"}); err != nil {
		t.Fatal(err)
	}
	if Default() != nil {
		t.Errorf("empty Setup installed a default sink")
	}
	if err := Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := Shutdown(); err != nil {
		t.Fatal(err)
	}
}
