package game

import (
	"context"
	"errors"
	"math"
	"testing"

	"nmdetect/internal/household"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/watchdog"
)

// A NaN guideline price poisons the CE battery objective: the CE watchdog
// reports divergence, the game restores its last-good iterate and retries
// with salted streams, and once the budget is exhausted the solve surfaces
// the typed sentinel instead of a NaN schedule.
func TestSolveDivergesOnNaNPrice(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), true)
	cfg.MaxSweeps = 2
	// Slot 18: evening, no PV export, so community trading is positive and
	// the NaN actually reaches the cost model (midday slots can be clamped
	// to zero cost when the community is a net seller).
	price := flatPrice(0.1)
	price[18] = math.NaN()
	pv := [][]float64{middayPV(4), make([]float64, 24), middayPV(3)}
	_, err := Solve(context.Background(), nil, customers, price, pv, cfg, rng.New(7))
	if !errors.Is(err, watchdog.ErrDiverged) {
		t.Fatalf("want ErrDiverged, got %v", err)
	}
}

// A NaN PV trace on a battery-less customer bypasses the CE layer entirely:
// the customer's trading vector goes NaN, and it is the game's own
// sweep-boundary finiteness check that must catch it.
func TestSolveDivergesOnNaNPV(t *testing.T) {
	base := make([]float64, 24)
	for h := range base {
		base[h] = 0.5
	}
	c := &household.Customer{
		ID:       0,
		BaseLoad: base,
		Panel:    solar.Panel{CapacityKW: 4, Orientation: 1},
	}
	if err := c.Validate(24); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(testTariff(t), true)
	cfg.MaxSweeps = 4
	pv := middayPV(4)
	pv[12] = math.NaN()
	_, err := Solve(context.Background(), nil, []*household.Customer{c}, flatPrice(0.1), [][]float64{pv}, cfg, rng.New(7))
	if !errors.Is(err, watchdog.ErrDiverged) {
		t.Fatalf("want ErrDiverged, got %v", err)
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	base := DefaultConfig(testTariff(t), true)
	cases := []func(*Config){
		func(c *Config) { c.BatteryInitFrac = math.NaN() },
		func(c *Config) { c.Tol = math.NaN() },
		func(c *Config) { c.Tol = math.Inf(1) },
		func(c *Config) { c.Tariff.W = math.NaN() },
		func(c *Config) { c.CE.EliteFrac = math.NaN() },
		func(c *Config) { c.CE.Smoothing = math.NaN() },
		func(c *Config) { c.CE.InitStdFrac = math.Inf(1) },
		func(c *Config) { c.CE.StdTol = math.NaN() },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: non-finite config unexpectedly valid", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
}
