package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"io"
	"testing"

	"nmdetect/internal/obs"
)

// TestInstrumentationBitwiseNonIntrusive is the observability determinism
// contract (DESIGN.md §9): attaching an event sink must not change a single
// result bit. The sink is installed both on the context and as the process
// default — covering every instrumentation route (ctx-threaded solvers, the
// ctx-free SVR/checkpoint paths) — and the instrumented run's results must
// be gob-byte identical to a run with events disabled. Fig5 exercises the
// full pipeline underneath: engine bootstrap (game solves, CE, tariff
// process), day preparation and an attacked simulate-day.
func TestInstrumentationBitwiseNonIntrusive(t *testing.T) {
	spec := fastSpec(7)

	run := func(instrumented bool) []byte {
		t.Helper()
		ctx := context.Background()
		if instrumented {
			sink := obs.NewSink(io.Discard)
			obs.SetDefault(sink)
			defer func() {
				obs.SetDefault(nil)
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			ctx = obs.With(ctx, sink)
		}
		res, err := Fig5(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	off := run(false)
	on := run(true)
	if !bytes.Equal(off, on) {
		t.Fatalf("events-on run differs from events-off run: %d vs %d gob bytes", len(on), len(off))
	}
}
