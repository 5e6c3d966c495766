package game

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"nmdetect/internal/appliance"
	"nmdetect/internal/dpsched"
	"nmdetect/internal/household"
	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/timeseries"
)

// seededCommunity is jacobiCommunity with a caller-chosen seed, for the
// multi-seed invariance sweep.
func seededCommunity(t *testing.T, seed uint64) ([]*household.Customer, [][]float64, Config) {
	t.Helper()
	customers, err := household.DefaultGenerator().Generate(24, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	pv, err := household.CommunityPVTraces(customers, solar.DefaultModel(), 1, rng.New(seed+100))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(testTariff(t), true)
	cfg.MaxSweeps = 2
	cfg.CE.Samples = 10
	cfg.CE.MaxIter = 5
	return customers, pv, cfg
}

func gobBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSolveWSActiveTolZeroIdentity is the ActiveTol=0 contract: solving
// through a reused workspace — including a workspace that already served
// other solves — is gob-byte identical to the legacy allocating Solve, on
// both the Gauss-Seidel and the block-Jacobi schedule.
func TestSolveWSActiveTolZeroIdentity(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()

	for _, block := range []int{0, 8} {
		cfg.JacobiBlock = block
		legacy, err := Solve(nil, nil, customers, price, pv, cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		want := gobBytes(t, legacy)

		ws := NewWorkspace()
		for trial := 0; trial < 3; trial++ {
			got, err := Solve(nil, ws, customers, price, pv, cfg, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if !resultsIdentical(legacy, got) {
				t.Fatalf("block %d trial %d: workspace solve differs from legacy", block, trial)
			}
			if !bytes.Equal(want, gobBytes(t, got)) {
				t.Fatalf("block %d trial %d: workspace solve not gob-byte identical to legacy", block, trial)
			}
		}
		// Earlier Results must survive workspace reuse untouched (ownership
		// contract: nothing in a Result aliases the workspace).
		if !bytes.Equal(want, gobBytes(t, legacy)) {
			t.Fatalf("block %d: legacy result mutated by later workspace solves", block)
		}
	}
}

// TestActiveSetEquilibriumInvariance bounds what ActiveTol trades away: for
// small tolerances the active-set solution's equilibrium gap stays within 2x
// the legacy solution's gap (plus an epsilon for gap==0), across 3 seeds.
func TestActiveSetEquilibriumInvariance(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		customers, pv, cfg := seededCommunity(t, seed)
		price := variedPrice()
		prices := make([]timeseries.Series, len(customers))
		for i := range prices {
			prices[i] = price
		}

		legacy, err := Solve(nil, nil, customers, price, pv, cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		legacyGap, _, err := EquilibriumGap(nil, customers, prices, pv, cfg, legacy, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}

		for _, tol := range []float64{1e-9, 1e-6} {
			acfg := cfg
			acfg.ActiveTol = tol
			res, err := Solve(nil, nil, customers, price, pv, acfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			// The gap probe itself runs with ActiveTol (it only gates sweeps,
			// which the probe does not perform) — keep the same config so the
			// comparison is apples to apples.
			gap, _, err := EquilibriumGap(nil, customers, prices, pv, acfg, res, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if bound := 2*legacyGap + 1e-9; gap > bound {
				t.Fatalf("seed %d tol %g: active-set gap %v exceeds bound %v (legacy gap %v)",
					seed, tol, gap, bound, legacyGap)
			}
		}
	}
}

// TestActiveSetSkipsAndDeterminism drives a tolerance large enough to gate
// customers and checks (a) the obs counters report skips, (b) the active-set
// path is deterministic: two identical solves agree bitwise. The no-NM model
// is used because its best responses are deterministic (no CE battery
// redraws), so customers actually go stationary after the early sweeps —
// exactly the structure the gate exploits.
func TestActiveSetSkipsAndDeterminism(t *testing.T) {
	// One flexible customer plus two base-load-only customers: after the
	// flexible customer settles (deterministic DP, strictly varying price so
	// optima are unique), the other two see an unchanged neighborhood and
	// must be gated out instead of re-solved.
	base := make([]float64, 24)
	for h := range base {
		base[h] = 0.5
	}
	flexible := &household.Customer{
		ID: 0,
		Appliances: []*appliance.Appliance{{
			Name: "flex", Levels: []float64{1.0}, Energy: 2, Start: 0, Deadline: 5,
		}},
		BaseLoad: base,
	}
	customers := []*household.Customer{
		flexible,
		{ID: 1, BaseLoad: base},
		{ID: 2, BaseLoad: base},
	}
	// Strictly decreasing price: no cost ties, and the optimum (run late)
	// differs from the greedy initial placement (run early), so the first
	// sweep genuinely moves the flexible customer.
	price := make(timeseries.Series, 24)
	for h := range price {
		price[h] = 0.10 - 0.001*float64(h)
	}
	cfg := DefaultConfig(testTariff(t), false)
	cfg.MaxSweeps = 4
	cfg.Tol = 1e-12
	cfg.ActiveTol = 0.01

	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	ctx := obs.With(context.Background(), sink)

	a, err := Solve(ctx, NewWorkspace(), customers, price, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	out := buf.String()
	counters := map[string]int64{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			Type string `json:"type"`
			Name string `json:"name"`
			N    int64  `json:"n"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err == nil && rec.Type == "counter" {
			counters[rec.Name] = rec.N
		}
	}
	if counters["game.active.skipped"] <= 0 {
		t.Fatalf("gate never skipped a customer at tol %v (counters %v):\n%s", cfg.ActiveTol, counters, out)
	}
	if counters["game.active.resolved"] <= 0 {
		t.Fatalf("gate never re-solved a customer (counters %v)", counters)
	}

	b, err := Solve(nil, NewWorkspace(), customers, price, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(a, b) {
		t.Fatal("active-set solve is not deterministic")
	}
}

// TestGreedyFillRejectsOverfullAppliance is the regression test for the
// latent bug where greedyFill silently dropped residual energy that could
// never fit the appliance window.
func TestGreedyFillRejectsOverfullAppliance(t *testing.T) {
	base := make([]float64, 24)
	c := &household.Customer{
		ID: 0,
		Appliances: []*appliance.Appliance{{
			Name: "overfull", Levels: []float64{1.0}, Energy: 10, Start: 0, Deadline: 3,
		}},
		BaseLoad: base,
	}
	cfg := DefaultConfig(testTariff(t), false)
	_, err := Solve(nil, nil, []*household.Customer{c}, variedPrice(), nil, cfg, nil)
	if err == nil {
		t.Fatal("Solve accepted an appliance whose energy cannot fit its window")
	}
	if !errors.Is(err, dpsched.ErrInfeasible) {
		t.Fatalf("error %v does not wrap dpsched.ErrInfeasible", err)
	}
	if !strings.Contains(err.Error(), "customer 0") || !strings.Contains(err.Error(), "overfull") {
		t.Fatalf("error %v does not identify the customer and appliance", err)
	}

	// Direct unit check: residual is reported, fitting energy is not.
	load := make([]float64, 24)
	if err := greedyFill(&appliance.Appliance{Name: "x", Levels: []float64{1.0}, Energy: 10, Start: 0, Deadline: 3}, load); err == nil {
		t.Fatal("greedyFill accepted 10 kWh into a 4-slot window at 1 kW")
	}
	if err := greedyFill(&appliance.Appliance{Name: "x", Levels: []float64{1.0}, Energy: 4, Start: 0, Deadline: 3}, load); err != nil {
		t.Fatalf("greedyFill rejected a feasible appliance: %v", err)
	}
	if err := greedyFill(&appliance.Appliance{Name: "x", Levels: []float64{1.0}, Energy: 1, Start: 20, Deadline: 30}, load); err == nil {
		t.Fatal("greedyFill accepted a window past the horizon")
	}
}

func TestConfigValidateActiveTol(t *testing.T) {
	cfg := DefaultConfig(testTariff(t), false)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		c := cfg
		c.ActiveTol = bad
		if c.Validate() == nil {
			t.Fatalf("Validate accepted ActiveTol %v", bad)
		}
	}
	c := cfg
	c.ActiveTol = 0.25
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate rejected ActiveTol 0.25: %v", err)
	}
}
