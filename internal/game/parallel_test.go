package game

import (
	"context"
	"strings"
	"testing"

	"nmdetect/internal/household"
	"nmdetect/internal/parallel"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/timeseries"
)

// jacobiCommunity draws the seeded 24-customer net-metering community the
// determinism contract is asserted on, with a reduced CE budget so the
// bitwise comparisons stay fast.
func jacobiCommunity(t *testing.T) ([]*household.Customer, [][]float64, Config) {
	t.Helper()
	customers, err := household.DefaultGenerator().Generate(24, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	pv, err := household.CommunityPVTraces(customers, solar.DefaultModel(), 1, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(testTariff(t), true)
	cfg.MaxSweeps = 2
	cfg.CE.Samples = 10
	cfg.CE.MaxIter = 5
	return customers, pv, cfg
}

func variedPrice() timeseries.Series {
	p := make(timeseries.Series, 24)
	for h := range p {
		p[h] = 0.05 + 0.002*float64(h%7)
	}
	return p
}

// resultsIdentical compares two solutions bitwise.
func resultsIdentical(a, b *Result) bool {
	if a.Sweeps != b.Sweeps || a.Converged != b.Converged {
		return false
	}
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq(a.Load, b.Load) || !eq(a.GridDemand, b.GridDemand) || !eq(a.Cost, b.Cost) {
		return false
	}
	for i := range a.CustomerLoad {
		if !eq(a.CustomerLoad[i], b.CustomerLoad[i]) || !eq(a.CustomerTrading[i], b.CustomerTrading[i]) {
			return false
		}
		if !eq(a.BatteryTraj[i], b.BatteryTraj[i]) {
			return false
		}
	}
	return true
}

func TestSolveWorkers1MatchesLegacySequential(t *testing.T) {
	// The refactored sweep with Workers: 1 / JacobiBlock: 1 must walk the
	// exact code path (and floating-point update order) of the historical
	// Gauss-Seidel solver, here represented by the zero-valued knobs.
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()
	legacy, err := Solve(context.Background(), nil, customers, price, pv, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	seq := cfg
	seq.Workers = 1
	seq.JacobiBlock = 1
	got, err := Solve(context.Background(), nil, customers, price, pv, seq, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(legacy, got) {
		t.Fatal("Workers:1/JacobiBlock:1 diverged from the sequential reference")
	}
}

func TestSolveJacobiBitwiseAcrossWorkerCounts(t *testing.T) {
	// For a fixed seed and block size, the block-Jacobi solution must be
	// bitwise identical for every worker count, and repeated runs with
	// Workers: 4 must be bitwise identical to each other.
	prev := parallel.SetLimit(8)
	defer parallel.SetLimit(prev)

	customers, pv, cfg := jacobiCommunity(t)
	cfg.JacobiBlock = 8
	price := variedPrice()

	solveWith := func(workers int) *Result {
		c := cfg
		c.Workers = workers
		res, err := Solve(context.Background(), nil, customers, price, pv, c, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := solveWith(1)
	for _, workers := range []int{4, 8} {
		if !resultsIdentical(ref, solveWith(workers)) {
			t.Fatalf("Workers:%d diverged from Workers:1 at JacobiBlock 8", workers)
		}
	}
	if !resultsIdentical(solveWith(4), solveWith(4)) {
		t.Fatal("repeated Workers:4 runs diverged")
	}
}

func TestEquilibriumGapJacobiBounded(t *testing.T) {
	// The Jacobi schedule trades total freshness for parallelism; its
	// equilibrium quality must stay certified: after a full sweep budget
	// the residual best-response improvement is a small fraction of the
	// community cost, just as for the Gauss-Seidel reference.
	customers := smallCommunity(t)
	price := flatPrice(0.1)
	prices := []timeseries.Series{price, price, price}

	cfg := DefaultConfig(testTariff(t), false)
	cfg.MaxSweeps = 10
	cfg.JacobiBlock = 2
	res, err := Solve(context.Background(), nil, customers, price, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Jacobi game did not converge in %d sweeps", res.Sweeps)
	}
	assertGapBounded := func(cfg Config, res *Result) {
		t.Helper()
		gap, worst, err := EquilibriumGap(context.Background(), customers, prices, nil, cfg, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalCost := 0.0
		for _, c := range res.Cost {
			totalCost += c
		}
		if gap > 0.01*totalCost {
			t.Fatalf("Jacobi equilibrium gap %v (customer %d) is %v%% of total cost",
				gap, worst, 100*gap/totalCost)
		}
	}
	assertGapBounded(cfg, res)

	// Whole-community block (pure Jacobi): simultaneous best responses may
	// oscillate between cost-equivalent schedules, so the trading-delta
	// Converged flag need not fire — but the equilibrium gap must still be
	// bounded, which is exactly why the gap is the Jacobi-mode certificate.
	pure := cfg
	pure.JacobiBlock = len(customers)
	pureRes, err := Solve(context.Background(), nil, customers, price, nil, pure, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertGapBounded(pure, pureRes)
}

func TestEquilibriumGapRejectsMalformedResult(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	price := flatPrice(0.1)
	prices := []timeseries.Series{price, price, price}
	res, err := Solve(context.Background(), nil, customers, price, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated trading row: must return an error, not panic.
	bad := *res
	bad.CustomerTrading = append([][]float64(nil), res.CustomerTrading...)
	bad.CustomerTrading[1] = bad.CustomerTrading[1][:12]
	if _, _, err := EquilibriumGap(context.Background(), customers, prices, nil, cfg, &bad, nil); err == nil {
		t.Error("truncated trading vector accepted")
	} else if !strings.Contains(err.Error(), "trading vector") {
		t.Errorf("unexpected error: %v", err)
	}

	// Cost vector of the wrong length likewise.
	bad2 := *res
	bad2.Cost = res.Cost[:1]
	if _, _, err := EquilibriumGap(context.Background(), customers, prices, nil, cfg, &bad2, nil); err == nil {
		t.Error("short cost vector accepted")
	}
}

func TestSolveConfigValidatesParallelKnobs(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	cfg.Workers = -1
	if _, err := Solve(context.Background(), nil, customers, flatPrice(0.1), nil, cfg, nil); err == nil {
		t.Error("negative Workers accepted")
	}
	cfg = DefaultConfig(testTariff(t), false)
	cfg.JacobiBlock = -2
	if _, err := Solve(context.Background(), nil, customers, flatPrice(0.1), nil, cfg, nil); err == nil {
		t.Error("negative JacobiBlock accepted")
	}
}
