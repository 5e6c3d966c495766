package community

import (
	"context"
	"math"
	"testing"

	"nmdetect/internal/attack"
	"nmdetect/internal/detect"
	"nmdetect/internal/faultinject"
	"nmdetect/internal/pomdp"
)

// faultyEngine builds a small engine with the given fault configuration.
func faultyEngine(t *testing.T, n int, seed uint64, faults faultinject.Config) *Engine {
	t.Helper()
	cfg := DefaultConfig(n, seed)
	cfg.GameSweeps = 2
	cfg.Faults = faults
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// simDays runs d clean days and returns the traces.
func simDays(t *testing.T, e *Engine, d int) []*DayTrace {
	t.Helper()
	traces := make([]*DayTrace, d)
	for i := range traces {
		env, err := e.PrepareDay(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		traces[i], err = e.SimulateDay(context.Background(), env, nil, true, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	return traces
}

// A zero-valued (but explicitly set, with a seed) faults config must be
// bitwise indistinguishable from the default fault-free engine: the fault
// plumbing may not perturb any random stream.
func TestZeroFaultsBitwiseIdenticalToFaultFree(t *testing.T) {
	plain := simDays(t, testEngine(t, 8, 99), 3)
	zeroed := simDays(t, faultyEngine(t, 8, 99, faultinject.Config{Seed: 123}), 3)
	for d := range plain {
		a, b := plain[d], zeroed[d]
		if b.Env.Faults != nil {
			t.Fatal("zero fault config produced a fault plan")
		}
		for h := 0; h < 24; h++ {
			if math.Float64bits(a.Load[h]) != math.Float64bits(b.Load[h]) ||
				math.Float64bits(a.Env.Published[h]) != math.Float64bits(b.Env.Published[h]) {
				t.Fatalf("day %d slot %d diverged under zero fault config", d, h)
			}
			for n := range a.RealizedMeter {
				if math.Float64bits(a.RealizedMeter[n][h]) != math.Float64bits(b.RealizedMeter[n][h]) {
					t.Fatalf("day %d meter %d slot %d reading diverged", d, n, h)
				}
			}
		}
	}
}

// Fault realizations are part of the seeded world: two engines with the same
// configuration must inject identical faults and produce identical traces.
func TestFaultyEngineDeterministic(t *testing.T) {
	faults := faultinject.DefaultConfig(7)
	a := simDays(t, faultyEngine(t, 8, 55, faults), 3)
	b := simDays(t, faultyEngine(t, 8, 55, faults), 3)
	for d := range a {
		for n := range a[d].RealizedMeter {
			for h := 0; h < 24; h++ {
				if math.Float64bits(a[d].RealizedMeter[n][h]) != math.Float64bits(b[d].RealizedMeter[n][h]) {
					t.Fatalf("day %d meter %d slot %d diverged", d, n, h)
				}
			}
		}
	}
}

// Reading faults live on the measurement plane: NaNs and spikes appear in
// RealizedMeter exactly where the plan says, while the physical trace (Load,
// GridDemand, clean meter flows) stays finite and matches the fault-free
// world bit for bit.
func TestReadingFaultsMeasurementPlaneOnly(t *testing.T) {
	faults := faultinject.Config{Seed: 3, DropoutRate: 0.3, CorruptRate: 0.2, SpikeKW: 5}
	faulty := simDays(t, faultyEngine(t, 8, 91, faults), 2)
	clean := simDays(t, testEngine(t, 8, 91), 2)

	sawNaN := false
	for d := range faulty {
		df := faulty[d].Env.Faults
		if df == nil {
			t.Fatal("fault plan missing from environment")
		}
		for h := 0; h < 24; h++ {
			if math.IsNaN(faulty[d].Load[h]) || math.IsNaN(faulty[d].GridDemand[h]) {
				t.Fatalf("physical trace corrupted at day %d slot %d", d, h)
			}
			if math.Float64bits(faulty[d].Load[h]) != math.Float64bits(clean[d].Load[h]) {
				t.Fatalf("physical load diverged at day %d slot %d", d, h)
			}
			for n := range faulty[d].RealizedMeter {
				got := faulty[d].RealizedMeter[n][h]
				if math.IsNaN(df.Readings[n][h]) {
					sawNaN = true
					if !math.IsNaN(got) {
						t.Fatalf("dropped reading day %d meter %d slot %d is %v, want NaN", d, n, h, got)
					}
					continue
				}
				want := clean[d].RealizedMeter[n][h] + df.Readings[n][h]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("reading day %d meter %d slot %d: got %v want %v", d, n, h, got, want)
				}
			}
		}
	}
	if !sawNaN {
		t.Fatal("30% dropout produced no missing readings over 2 days")
	}
}

// A stuck head-end re-broadcasts whatever went out last: with a certain
// stale rate, every day after the first receives day 0's price, and the
// physically realized demand responds to that stale broadcast.
func TestStaleBroadcastChains(t *testing.T) {
	faults := faultinject.Config{Seed: 11, StalePriceRate: 1}
	e := faultyEngine(t, 8, 13, faults)
	traces := simDays(t, e, 3)
	day0 := traces[0].Env.Published
	for d := 1; d < len(traces); d++ {
		if !traces[d].Env.Faults.StalePrice {
			t.Fatalf("day %d not stale under rate 1", d)
		}
		for h := 0; h < 24; h++ {
			if math.Float64bits(traces[d].Env.Published[h]) != math.Float64bits(day0[h]) {
				t.Fatalf("day %d slot %d price %v, want day-0 broadcast %v",
					d, h, traces[d].Env.Published[h], day0[h])
			}
		}
	}
	// The history must record the stale price the customers actually saw.
	hist := e.History()
	for h := 0; h < 24; h++ {
		if math.Float64bits(hist.Price[24+h]) != math.Float64bits(day0[h]) {
			t.Fatalf("history slot %d holds %v, want the stale broadcast", h, hist.Price[24+h])
		}
	}
}

// PV-sensor outages blank the forecast the pricing and prediction layers
// see, but never the physically realized generation.
func TestPVOutageBlanksForecastOnly(t *testing.T) {
	faults := faultinject.Config{Seed: 17, PVOutageRate: 1, PVOutageSlots: 24}
	e := faultyEngine(t, 8, 29, faults)
	env, err := e.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Faults.PVOutage) == 0 {
		t.Fatal("no outage windows under rate 1")
	}
	anyGen := false
	for n := range env.PVForecast {
		w := env.Faults.PVOutage[n]
		for h := 0; h < 24; h++ {
			if w.Active(h) && env.PVForecast[n][h] != 0 {
				t.Fatalf("meter %d slot %d forecast %v inside outage window", n, h, env.PVForecast[n][h])
			}
			if env.PV[n][h] > 0 {
				anyGen = true
			}
		}
	}
	if !anyGen {
		t.Fatal("realized PV zeroed by sensor outage (only the forecast may blank)")
	}
}

// MonitorDay under dropout faults: readings are imputed, the day is flagged
// degraded, and detection completes instead of failing on NaN input.
func TestMonitorDayDegradesGracefully(t *testing.T) {
	faults := faultinject.Config{Seed: 5, DropoutRate: 0.25}
	e := faultyEngine(t, 20, 31, faults)
	aware, _ := buildKits(t, e)

	params := detect.DefaultModelParams(20, 0.05, 0.3)
	params.CalibSamples = 800
	model, err := detect.BuildModel(params)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := pomdp.SolveQMDP(context.Background(), model, 1e-8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	aware.LongTerm, err = detect.NewLongTerm(model, policy, params.Buckets)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attack.NewCampaign(20, 0.6, 2, 4, attack.ZeroWindow{From: 16, To: 17})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.MonitorDay(context.Background(), aware, camp, params.Buckets, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImputedReadings == 0 {
		t.Fatal("25% dropout imputed nothing")
	}
	if !res.Degraded {
		t.Fatal("day with imputed readings not flagged degraded")
	}
	if res.Confidence >= 1 || res.Confidence <= 0 {
		t.Fatalf("confidence %v out of (0,1)", res.Confidence)
	}
	for h := 0; h < 24; h++ {
		if res.Flagged[h] < 0 || res.Estimated[h] < 0 {
			t.Fatalf("slot %d produced invalid counts under faults", h)
		}
	}
}

// Engine state snapshots restore into a fresh engine and continue the run
// bit for bit — including the stale-broadcast chain and fault plan.
func TestEngineStateRoundTrip(t *testing.T) {
	faults := faultinject.Config{Seed: 23, DropoutRate: 0.1, StalePriceRate: 0.5}
	build := func() *Engine { return faultyEngine(t, 8, 47, faults) }

	ref := build()
	simDays(t, ref, 2)
	st := ref.State()
	wantTraces := simDays(t, ref, 2)

	resumed := build()
	if err := resumed.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	gotTraces := simDays(t, resumed, 2)
	for d := range wantTraces {
		for n := range wantTraces[d].RealizedMeter {
			for h := 0; h < 24; h++ {
				w := wantTraces[d].RealizedMeter[n][h]
				g := gotTraces[d].RealizedMeter[n][h]
				if math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("resumed day %d meter %d slot %d: %v != %v", d, n, h, g, w)
				}
			}
		}
	}
}

func TestRestoreStateValidates(t *testing.T) {
	e := testEngine(t, 8, 3)
	simDays(t, e, 1)
	good := e.State()

	bad := good
	bad.Day = -1
	if err := e.RestoreState(bad); err == nil {
		t.Error("negative day accepted")
	}
	bad = good
	bad.Day = 5 // history holds 1 day
	if err := e.RestoreState(bad); err == nil {
		t.Error("day/history mismatch accepted")
	}
	bad = good
	bad.LastLoad = bad.LastLoad[:12]
	if err := e.RestoreState(bad); err == nil {
		t.Error("short demand basis accepted")
	}
	if err := e.RestoreState(good); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

func TestConfigValidateFaults(t *testing.T) {
	cfg := DefaultConfig(8, 1)
	cfg.Faults = faultinject.Config{DropoutRate: 1.5}
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range dropout rate accepted")
	}
	cfg = DefaultConfig(8, 1)
	cfg.SolarForecastSigma = math.NaN()
	if err := cfg.Validate(); err == nil {
		t.Error("NaN forecast noise accepted")
	}
	cfg = DefaultConfig(8, 1)
	cfg.Tariff.W = math.Inf(1)
	if err := cfg.Validate(); err == nil {
		t.Error("infinite sell-back divisor accepted")
	}
}
