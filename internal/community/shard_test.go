package community

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"

	"nmdetect/internal/attack"
	"nmdetect/internal/forecast"
)

// shardEngine builds a fast engine with the given shard count.
func shardEngine(t *testing.T, n int, seed uint64, shards int) *Engine {
	t.Helper()
	cfg := DefaultConfig(n, seed)
	cfg.GameSweeps = 2
	cfg.Shards = shards
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runDays simulates `days` attacked days and returns the gob encoding of
// every trace plus the final engine snapshot — the full observable output of
// the run.
func runDays(t *testing.T, e *Engine, days int) []byte {
	t.Helper()
	ctx := context.Background()
	camp, err := attack.NewCampaign(e.cfg.N, 0.4, 1, 3, attack.ZeroWindow{From: 16, To: 17})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for d := 0; d < days; d++ {
		env, err := e.PrepareDay(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := e.SimulateDay(ctx, env, camp, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(trace); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(e.State()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineShardsLE1Identity is the engine-level half of the tentpole's
// bitwise contract: an engine configured with Shards 0 and one with Shards 1
// must produce gob-byte identical day traces and utility state — neither may
// ever enter the hierarchical code path.
func TestEngineShardsLE1Identity(t *testing.T) {
	const days = 2
	want := runDays(t, shardEngine(t, 9, 42, 0), days)
	got := runDays(t, shardEngine(t, 9, 42, 1), days)
	if !bytes.Equal(want, got) {
		t.Fatal("Shards=1 engine is not gob-byte identical to Shards=0")
	}
}

// TestEngineShardedDeterministicAcrossWorkers extends the Workers contract to
// a sharded engine: the worker budget must never change a bit of a sharded
// run's output.
func TestEngineShardedDeterministicAcrossWorkers(t *testing.T) {
	const days = 2
	var want []byte
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(9, 42)
		cfg.GameSweeps = 2
		cfg.Shards = 3
		cfg.Workers = workers
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := runDays(t, e, days)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: sharded engine output differs from workers=1", workers)
		}
	}
}

// TestEngineShardedDiffersFromFlat is a sanity check that Shards > 1 really
// selects a different (deterministic) equilibrium path — if sharded output
// were accidentally identical to flat, the knob would be dead weight and the
// identity tests above vacuous.
func TestEngineShardedDiffersFromFlat(t *testing.T) {
	const days = 1
	flat := runDays(t, shardEngine(t, 9, 42, 0), days)
	sharded := runDays(t, shardEngine(t, 9, 42, 3), days)
	if bytes.Equal(flat, sharded) {
		t.Fatal("Shards=3 produced bitwise identical output to the flat engine")
	}
}

// TestEngineShardedDetection runs the full monitored loop — expected
// profiles, flagger, POMDP — on a sharded engine, checking that detectors
// share the engine's shard configuration through GameConfig (a mismatch
// would make every expected profile wrong and the day degenerate).
func TestEngineShardedDetection(t *testing.T) {
	e := shardEngine(t, 8, 7, 2)
	got := e.GameConfig(true)
	if got.Shards != 2 {
		t.Fatalf("GameConfig.Shards = %d, want 2", got.Shards)
	}
	ctx := context.Background()
	if err := e.Bootstrap(ctx, 4, true); err != nil {
		t.Fatal(err)
	}
	fc, err := forecast.Train(e.History(), forecast.ModeNetMeteringAware, forecast.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	kit := &DetectorKit{Name: "aware", NetMetering: true, Forecaster: fc, FlagTau: 0.5}
	env, err := e.PrepareDay(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	expected, err := kit.ExpectedProfiles(ctx, e, env, env.Published)
	if err != nil {
		t.Fatal(err)
	}
	if len(expected) != 8 || len(expected[0]) != 24 {
		t.Fatalf("expected profiles shape %dx%d, want 8x24", len(expected), len(expected[0]))
	}
}
