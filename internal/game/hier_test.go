package game

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
)

func TestShardPlan(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []Range
	}{
		{5, 1, []Range{{0, 5}}},
		{5, 0, []Range{{0, 5}}}, // clamped up to 1
		{5, 2, []Range{{0, 3}, {3, 5}}},
		{6, 3, []Range{{0, 2}, {2, 4}, {4, 6}}},
		{7, 3, []Range{{0, 3}, {3, 5}, {5, 7}}},
		{3, 8, []Range{{0, 1}, {1, 2}, {2, 3}}}, // clamped down to n
	}
	for _, c := range cases {
		got := ShardPlan(c.n, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("ShardPlan(%d,%d) = %v, want %v", c.n, c.shards, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ShardPlan(%d,%d)[%d] = %v, want %v", c.n, c.shards, i, got[i], c.want[i])
			}
		}
	}
	// Every plan must tile [0, n) exactly, whatever the parameters.
	for n := 1; n <= 23; n++ {
		for shards := 0; shards <= n+2; shards++ {
			plan := ShardPlan(n, shards)
			at := 0
			for _, r := range plan {
				if r.Start != at || r.End <= r.Start {
					t.Fatalf("ShardPlan(%d,%d) does not tile: %v", n, shards, plan)
				}
				at = r.End
			}
			if at != n {
				t.Fatalf("ShardPlan(%d,%d) covers [0,%d), want [0,%d)", n, shards, at, n)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ShardPlan(0, 2) should panic")
		}
	}()
	ShardPlan(0, 2)
}

// TestSolveShardsLE1Identity is the tentpole's bitwise contract: Shards 0 and
// Shards 1 must never enter the hierarchical code path, producing gob-byte
// identical results to the historical flat solver.
func TestSolveShardsLE1Identity(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()

	legacy, err := Solve(context.Background(), nil, customers, price, pv, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	want := gobBytes(t, legacy)
	for _, shards := range []int{0, 1} {
		scfg := cfg
		scfg.Shards = shards
		got, err := Solve(context.Background(), nil, customers, price, pv, scfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, gobBytes(t, got)) {
			t.Fatalf("Shards=%d: not gob-byte identical to the flat solver", shards)
		}
	}
}

// TestSolveHierarchicalDeterministicAcrossWorkers pins the Workers contract
// for the outer tier: for a fixed shard count the solution is bitwise
// identical for every worker budget, sequential reference path included.
func TestSolveHierarchicalDeterministicAcrossWorkers(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()
	cfg.Shards = 4

	var want []byte
	for _, workers := range []int{1, 2, 4, 8} {
		scfg := cfg
		scfg.Workers = workers
		got, err := Solve(context.Background(), nil, customers, price, pv, scfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		b := gobBytes(t, got)
		if want == nil {
			want = b
			continue
		}
		if !bytes.Equal(want, b) {
			t.Fatalf("workers=%d: hierarchical solve differs from workers=1", workers)
		}
	}
}

// TestSolveHierarchicalResultShape checks the assembled community result: all
// per-customer rows populated, totals equal to the index-order sums of the
// rows, outer sweeps recorded, and a deterministic repeat.
func TestSolveHierarchicalResultShape(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()
	cfg.Shards = 3

	res, err := Solve(context.Background(), nil, customers, price, pv, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outer < 1 || res.Outer > 2 {
		t.Fatalf("Outer = %d, want in [1,2]", res.Outer)
	}
	if res.Sweeps < 1 {
		t.Fatalf("Sweeps = %d, want >= 1", res.Sweeps)
	}
	n := len(customers)
	if len(res.CustomerLoad) != n || len(res.CustomerTrading) != n || len(res.Cost) != n {
		t.Fatalf("result rows %d/%d/%d, want %d", len(res.CustomerLoad), len(res.CustomerTrading), len(res.Cost), n)
	}
	for i := 0; i < n; i++ {
		if len(res.CustomerLoad[i]) != 24 || len(res.CustomerTrading[i]) != 24 {
			t.Fatalf("customer %d rows missing", i)
		}
	}
	for h := 0; h < 24; h++ {
		sumL, sumY := 0.0, 0.0
		for i := 0; i < n; i++ {
			sumL += res.CustomerLoad[i][h]
			sumY += res.CustomerTrading[i][h]
		}
		if res.Load[h] != sumL || res.GridDemand[h] != sumY {
			t.Fatalf("slot %d: totals not the index-order sum of rows", h)
		}
	}

	again, err := Solve(context.Background(), nil, customers, price, pv, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, res), gobBytes(t, again)) {
		t.Fatal("hierarchical solve is not deterministic across repeats")
	}
}

// TestSolveHierarchicalWorkspaceReuse extends the PR 5 workspace contract to
// sharded solves: a reused workspace (with its per-shard children) yields
// gob-byte identical results to a fresh one, across repeated solves.
func TestSolveHierarchicalWorkspaceReuse(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()
	cfg.Shards = 4
	cfg.ActiveTol = 0.05 // exercise the per-shard active-set state too

	fresh, err := Solve(context.Background(), nil, customers, price, pv, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	want := gobBytes(t, fresh)
	ws := NewWorkspace()
	for trial := 0; trial < 3; trial++ {
		got, err := Solve(context.Background(), ws, customers, price, pv, cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, gobBytes(t, got)) {
			t.Fatalf("trial %d: reused workspace differs from fresh solve", trial)
		}
	}
}

// TestSolveHierarchicalNoNetMetering covers the consumption-only model (the
// NM-blind detector's world): no PV, no batteries, nil source.
func TestSolveHierarchicalNoNetMetering(t *testing.T) {
	customers, _, cfg := jacobiCommunity(t)
	price := variedPrice()
	cfg.NetMetering = false
	cfg.Shards = 3

	res, err := Solve(context.Background(), nil, customers, price, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outer < 1 {
		t.Fatalf("Outer = %d, want >= 1", res.Outer)
	}
	for h := 0; h < 24; h++ {
		if res.Load[h] != res.GridDemand[h] {
			t.Fatalf("slot %d: without net metering trading must equal consumption", h)
		}
	}
}

// TestExternalYValidation covers the coupling hook's input checking.
func TestExternalYValidation(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()

	bad := cfg
	bad.ExternalY = make([]float64, 7)
	if _, err := Solve(context.Background(), nil, customers, price, pv, bad, rng.New(7)); err == nil ||
		!strings.Contains(err.Error(), "external") {
		t.Fatalf("short ExternalY: err = %v, want external-aggregate length error", err)
	}

	nan := cfg
	nan.ExternalY = make([]float64, 24)
	nan.ExternalY[3] = nan64()
	if err := nan.Validate(); err == nil || !strings.Contains(err.Error(), "external") {
		t.Fatalf("NaN ExternalY: err = %v, want non-finite error", err)
	}
}

func nan64() float64 {
	z := 0.0
	return z / z
}

// TestExternalYCouples asserts the hook changes the priced neighborhood: a
// large fixed external aggregate must shift at least one customer's cost
// (quadratic pricing makes a crowded grid strictly more expensive).
func TestExternalYCouples(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()

	base, err := Solve(context.Background(), nil, customers, price, pv, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ext := cfg
	ext.ExternalY = make([]float64, 24)
	for t2 := range ext.ExternalY {
		ext.ExternalY[t2] = 500
	}
	crowded, err := Solve(context.Background(), nil, customers, price, pv, ext, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := range base.Cost {
		if base.Cost[i] != crowded.Cost[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("a 500 kW external aggregate left every customer's cost untouched")
	}
}

// TestSolveHierarchicalObsCounters checks the outer-tier instrumentation:
// outer sweep counters and per-shard solve/sweep counters appear in the event
// stream, and the disabled path still works (covered implicitly by every
// other test running without a sink).
func TestSolveHierarchicalObsCounters(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()
	cfg.Shards = 2
	cfg.ActiveTol = 0.05

	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	ctx := obs.With(context.Background(), sink)
	if _, err := Solve(ctx, nil, customers, price, pv, cfg, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		`"game.outer.sweeps"`,
		`"game.outer.residual"`,
		`"game.shard.000.solves"`,
		`"game.shard.001.sweeps"`,
		`"game.shard.000.skipped"`,
		`"game.shard.001.resolved"`,
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("event stream missing %s:\n%s", name, out)
		}
	}
}
