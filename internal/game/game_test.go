package game

import (
	"context"
	"math"
	"testing"

	"nmdetect/internal/appliance"
	"nmdetect/internal/battery"
	"nmdetect/internal/household"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

func testTariff(t *testing.T) tariff.Quadratic {
	t.Helper()
	q, err := tariff.NewQuadratic(1.5)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// smallCommunity builds a deterministic 3-customer community for unit tests.
func smallCommunity(t *testing.T) []*household.Customer {
	t.Helper()
	base := make([]float64, 24)
	for h := range base {
		base[h] = 0.4
	}
	mk := func(id int, apps []*appliance.Appliance, pvKW, battKWh float64) *household.Customer {
		c := &household.Customer{ID: id, BaseLoad: append([]float64(nil), base...), Appliances: apps}
		if pvKW > 0 {
			c.Panel = solar.Panel{CapacityKW: pvKW, Orientation: 1}
		}
		if battKWh > 0 {
			c.Battery = battery.New(battKWh)
		}
		if err := c.Validate(24); err != nil {
			t.Fatal(err)
		}
		return c
	}
	return []*household.Customer{
		mk(0, []*appliance.Appliance{
			{Name: "washer", Levels: []float64{0.5, 1.0}, Energy: 2, Start: 8, Deadline: 16},
		}, 5, 10),
		mk(1, []*appliance.Appliance{
			{Name: "ev", Levels: []float64{1.5, 3.0}, Energy: 6, Start: 17, Deadline: 23},
		}, 0, 0),
		mk(2, []*appliance.Appliance{
			{Name: "dishwasher", Levels: []float64{0.6, 1.2}, Energy: 1.2, Start: 18, Deadline: 22},
		}, 4, 8),
	}
}

func flatPrice(v float64) timeseries.Series {
	p := make(timeseries.Series, 24)
	for i := range p {
		p[i] = v
	}
	return p
}

func middayPV(kw float64) []float64 {
	pv := make([]float64, 24)
	for h := 10; h < 16; h++ {
		pv[h] = kw
	}
	return pv
}

func TestSolveWithoutNetMetering(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	res, err := Solve(context.Background(), nil, customers, flatPrice(0.1), nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Energy conservation: community load covers base plus task energy.
	wantEnergy := 0.0
	for _, c := range customers {
		wantEnergy += 0.4*24 + c.TotalTaskEnergy()
	}
	if math.Abs(res.Load.Sum()-wantEnergy) > 1e-6 {
		t.Fatalf("community energy %v, want %v", res.Load.Sum(), wantEnergy)
	}
	// Without net metering, grid demand equals consumption.
	for h := range res.Load {
		if math.Abs(res.Load[h]-res.GridDemand[h]) > 1e-9 {
			t.Fatalf("slot %d: load %v != grid demand %v", h, res.Load[h], res.GridDemand[h])
		}
	}
	// No battery trajectories in this mode.
	for _, tr := range res.BatteryTraj {
		if tr != nil {
			t.Fatal("battery trajectory without net metering")
		}
	}
}

func TestSolveSpreadsLoadUnderQuadraticPricing(t *testing.T) {
	// With a flat price and quadratic congestion cost, the scheduled tasks
	// should avoid piling onto a single slot: PAR after scheduling must be
	// lower than a naive earliest-slot placement.
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	res, err := Solve(context.Background(), nil, customers, flatPrice(0.1), nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	naive := make(timeseries.Series, 24)
	for _, c := range customers {
		for h := 0; h < 24; h++ {
			naive[h] += c.BaseLoadAt(h)
		}
		for _, a := range c.Appliances {
			remaining := a.Energy
			for h := a.Start; h <= a.Deadline && remaining > 0; h++ {
				x := math.Min(a.MaxLevel(), remaining)
				naive[h] += x
				remaining -= x
			}
		}
	}
	if res.Load.PAR() >= naive.PAR() {
		t.Fatalf("scheduled PAR %v not below naive PAR %v", res.Load.PAR(), naive.PAR())
	}
}

func TestSolveAvoidsExpensiveSlots(t *testing.T) {
	// EV window covers slots 17–23; make 17–19 very expensive.
	customers := smallCommunity(t)[1:2] // EV-only customer
	price := flatPrice(0.05)
	for h := 17; h < 20; h++ {
		price[h] = 5.0
	}
	cfg := DefaultConfig(testTariff(t), false)
	res, err := Solve(context.Background(), nil, customers, price, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	expensive := res.Load[17] + res.Load[18] + res.Load[19] - 3*0.4
	cheap := res.Load[20] + res.Load[21] + res.Load[22] + res.Load[23] - 4*0.4
	if expensive > 1e-6 {
		t.Fatalf("EV energy %v placed in expensive slots (cheap share %v)", expensive, cheap)
	}
}

func TestSolveNetMeteringUsesSolar(t *testing.T) {
	customers := smallCommunity(t)
	pv := [][]float64{middayPV(4), make([]float64, 24), middayPV(3)}
	cfg := DefaultConfig(testTariff(t), true)
	res, err := Solve(context.Background(), nil, customers, flatPrice(0.1), pv, cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	// Midday grid demand must drop below consumption (solar self-use).
	middayDemand, middayLoad := 0.0, 0.0
	for h := 10; h < 16; h++ {
		middayDemand += res.GridDemand[h]
		middayLoad += res.Load[h]
	}
	if middayDemand >= middayLoad {
		t.Fatalf("midday grid demand %v not reduced below load %v", middayDemand, middayLoad)
	}
}

func TestSolveNetMeteringLowersCosts(t *testing.T) {
	customers := smallCommunity(t)
	pv := [][]float64{middayPV(4), make([]float64, 24), middayPV(3)}
	q := testTariff(t)

	noNM, err := Solve(context.Background(), nil, customers, flatPrice(0.1), nil, DefaultConfig(q, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	withNM, err := Solve(context.Background(), nil, customers, flatPrice(0.1), pv, DefaultConfig(q, true), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	// PV owners (customers 0 and 2) must be better off with net metering.
	for _, i := range []int{0, 2} {
		if withNM.Cost[i] >= noNM.Cost[i] {
			t.Fatalf("customer %d: NM cost %v not below non-NM cost %v", i, withNM.Cost[i], noNM.Cost[i])
		}
	}
}

func TestSolveBatteryTrajectoryValid(t *testing.T) {
	customers := smallCommunity(t)
	pv := [][]float64{middayPV(4), make([]float64, 24), middayPV(3)}
	cfg := DefaultConfig(testTariff(t), true)
	res, err := Solve(context.Background(), nil, customers, flatPrice(0.1), pv, cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range customers {
		tr := res.BatteryTraj[i]
		if c.HasBattery() {
			if tr == nil {
				t.Fatalf("customer %d: missing battery trajectory", i)
			}
			if err := c.Battery.CheckTrajectory(tr); err != nil {
				t.Fatalf("customer %d: %v", i, err)
			}
			if math.Abs(tr[0]-cfg.BatteryInitFrac*c.Battery.Capacity) > 1e-9 {
				t.Fatalf("customer %d: initial SoC %v", i, tr[0])
			}
		} else if tr != nil {
			t.Fatalf("customer %d: unexpected trajectory", i)
		}
	}
}

func TestSolveTradingConsistentWithEqn1(t *testing.T) {
	customers := smallCommunity(t)
	pv := [][]float64{middayPV(4), make([]float64, 24), middayPV(3)}
	cfg := DefaultConfig(testTariff(t), true)
	res, err := Solve(context.Background(), nil, customers, flatPrice(0.1), pv, cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range customers {
		traj := res.BatteryTraj[i]
		if traj == nil {
			traj = battery.FlatTrajectory(0, 24)
		}
		y, err := battery.ImpliedTrading(traj, res.CustomerLoad[i], pv[i])
		if err != nil {
			t.Fatal(err)
		}
		for h := range y {
			if math.Abs(y[h]-res.CustomerTrading[i][h]) > 1e-6 {
				t.Fatalf("customer %d slot %d: Eqn 1 trading %v != reported %v (battery=%v)",
					i, h, y[h], res.CustomerTrading[i][h], c.HasBattery())
			}
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	customers := smallCommunity(t)
	pv := [][]float64{middayPV(4), make([]float64, 24), middayPV(3)}
	cfg := DefaultConfig(testTariff(t), true)
	a, err := Solve(context.Background(), nil, customers, flatPrice(0.1), pv, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), nil, customers, flatPrice(0.1), pv, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for h := range a.Load {
		if a.Load[h] != b.Load[h] || a.GridDemand[h] != b.GridDemand[h] {
			t.Fatal("same seed produced different solutions")
		}
	}
}

func TestSolveInputValidation(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	if _, err := Solve(context.Background(), nil, nil, flatPrice(0.1), nil, cfg, nil); err == nil {
		t.Error("empty community accepted")
	}
	if _, err := Solve(context.Background(), nil, customers, flatPrice(0.1)[:12], nil, cfg, nil); err == nil {
		t.Error("short horizon accepted")
	}
	nmCfg := DefaultConfig(testTariff(t), true)
	if _, err := Solve(context.Background(), nil, customers, flatPrice(0.1), [][]float64{{1}}, nmCfg, rng.New(1)); err == nil {
		t.Error("bad pv shape accepted")
	}
	if _, err := Solve(context.Background(), nil, customers, flatPrice(0.1), [][]float64{middayPV(1), middayPV(1), middayPV(1)}, nmCfg, nil); err == nil {
		t.Error("nil source accepted with net metering")
	}
	bad := cfg
	bad.MaxSweeps = 0
	if _, err := Solve(context.Background(), nil, customers, flatPrice(0.1), nil, bad, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSolveConvergesOnSmallCommunity(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	cfg.MaxSweeps = 10
	res, err := Solve(context.Background(), nil, customers, flatPrice(0.1), nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("game did not converge in %d sweeps", res.Sweeps)
	}
}

func TestSolveMixedAttackedMeterFollowsItsOwnPrice(t *testing.T) {
	// Customer 1 (EV, window 17–23) receives a price zeroed at 20–21 while
	// the others see a flat price: the hacked customer must pile its EV
	// charge into the free window.
	customers := smallCommunity(t)
	published := flatPrice(0.1)
	hacked := flatPrice(0.1)
	hacked[20], hacked[21] = 0, 0
	prices := []timeseries.Series{published, hacked, published}
	cfg := DefaultConfig(testTariff(t), false)
	res, err := solveMixed(context.Background(), nil, customers, prices, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	evEnergy := res.CustomerLoad[1][20] + res.CustomerLoad[1][21] - 2*0.4
	if evEnergy < 5.9 { // EV task is 6 kWh; both free slots at 3 kW
		t.Fatalf("hacked EV customer placed only %v kWh in the free window", evEnergy)
	}
}

func TestSolveMixedValidation(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	if _, err := solveMixed(context.Background(), nil, customers, []timeseries.Series{flatPrice(0.1)}, nil, cfg, nil); err == nil {
		t.Error("wrong price count accepted")
	}
	ragged := []timeseries.Series{flatPrice(0.1), flatPrice(0.1)[:12], flatPrice(0.1)}
	ragged[1] = append(ragged[1], make(timeseries.Series, 12)...)
	ragged[1] = ragged[1][:20]
	if _, err := solveMixed(context.Background(), nil, customers, ragged, nil, cfg, nil); err == nil {
		t.Error("ragged prices accepted")
	}
}

func TestSolveRespectsBatteryCapacity(t *testing.T) {
	base := make([]float64, 24)
	for h := range base {
		base[h] = 0.4
	}
	c := &household.Customer{
		ID:       0,
		BaseLoad: base,
		Appliances: []*appliance.Appliance{
			{Name: "washer", Levels: []float64{0.5, 1.0}, Energy: 2, Start: 8, Deadline: 16},
		},
		Panel:   solar.Panel{CapacityKW: 4, Orientation: 1},
		Battery: battery.New(10),
	}
	if err := c.Validate(24); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(testTariff(t), true)
	res, err := Solve(context.Background(), nil, []*household.Customer{c}, flatPrice(0.1), [][]float64{middayPV(4)}, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	traj := res.BatteryTraj[0]
	if traj == nil {
		t.Fatal("missing trajectory")
	}
	if err := c.Battery.CheckTrajectory(traj); err != nil {
		t.Fatalf("trajectory leaves [0, capacity]: %v", err)
	}
	// Eqn 1 must still hold against the projected trajectory.
	y, err := battery.ImpliedTrading(traj, res.CustomerLoad[0], middayPV(4))
	if err != nil {
		t.Fatal(err)
	}
	for h := range y {
		if math.Abs(y[h]-res.CustomerTrading[0][h]) > 1e-6 {
			t.Fatalf("slot %d: Eqn 1 broken after projection", h)
		}
	}
}

func TestEquilibriumGapSmallAfterConvergence(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	cfg.MaxSweeps = 10
	price := flatPrice(0.1)
	res, err := Solve(context.Background(), nil, customers, price, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("game did not converge")
	}
	prices := []timeseries.Series{price, price, price}
	gap, worst, err := EquilibriumGap(context.Background(), customers, prices, nil, cfg, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	// After convergence no customer should be able to improve materially.
	totalCost := 0.0
	for _, c := range res.Cost {
		totalCost += c
	}
	if gap > 0.01*totalCost {
		t.Fatalf("equilibrium gap %v (customer %d) is %v%% of total cost",
			gap, worst, 100*gap/totalCost)
	}
}

func TestEquilibriumGapDetectsUnconverged(t *testing.T) {
	// A single sweep from the greedy start leaves visible improvement room
	// in at least some runs; the gap function must at minimum run cleanly
	// and return a non-negative gap.
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	cfg.MaxSweeps = 1
	price := flatPrice(0.1)
	res, err := Solve(context.Background(), nil, customers, price, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	prices := []timeseries.Series{price, price, price}
	gap, _, err := EquilibriumGap(context.Background(), customers, prices, nil, cfg, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gap < 0 {
		t.Fatalf("negative gap %v", gap)
	}
}

func TestEquilibriumGapValidation(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	price := flatPrice(0.1)
	res, err := Solve(context.Background(), nil, customers, price, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	prices := []timeseries.Series{price, price, price}
	if _, _, err := EquilibriumGap(context.Background(), customers, prices[:1], nil, cfg, res, nil); err == nil {
		t.Error("mismatched prices accepted")
	}
	if _, _, err := EquilibriumGap(context.Background(), customers, prices, nil, cfg, nil, nil); err == nil {
		t.Error("nil result accepted")
	}
	nmCfg := DefaultConfig(testTariff(t), true)
	if _, _, err := EquilibriumGap(context.Background(), customers, prices, [][]float64{middayPV(1), middayPV(1), middayPV(1)}, nmCfg, res, nil); err == nil {
		t.Error("nil source accepted in NM mode")
	}
}

func TestSolveCustomerLoadNonNegative(t *testing.T) {
	customers := smallCommunity(t)
	pv := [][]float64{middayPV(4), make([]float64, 24), middayPV(3)}
	cfg := DefaultConfig(testTariff(t), true)
	res, err := Solve(context.Background(), nil, customers, flatPrice(0.1), pv, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range customers {
		for h, v := range res.CustomerLoad[i] {
			if v < 0 {
				t.Fatalf("customer %d slot %d: negative load %v", i, h, v)
			}
		}
	}
}
