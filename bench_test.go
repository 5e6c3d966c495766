// Package bench is the benchmark harness: one benchmark per table and figure
// of the paper's evaluation (regenerating the result each iteration at a
// reduced community scale) plus ablation benchmarks for the design choices
// DESIGN.md calls out: the POMDP policy solver, the SVR trainer, the battery
// optimizer and the scheduling game.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Paper-scale regeneration (N=500) is the job of cmd/nmrepro; benchmarks use
// small communities so the full suite completes in minutes.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nmdetect/internal/appliance"
	"nmdetect/internal/attack"
	"nmdetect/internal/ceopt"
	"nmdetect/internal/community"
	"nmdetect/internal/detect"
	"nmdetect/internal/dpsched"
	"nmdetect/internal/experiments"
	"nmdetect/internal/fleet"
	"nmdetect/internal/forecast"
	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/obs"
	"nmdetect/internal/pomdp"
	"nmdetect/internal/rng"
	"nmdetect/internal/scenario"
	"nmdetect/internal/solar"
	"nmdetect/internal/svr"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

// benchSpec returns the reduced-scale scenario used by the per-figure
// benchmarks.
func benchSpec() scenario.Spec {
	s := scenario.Default(24, 42)
	s.Horizon.BootstrapDays = 5
	s.Horizon.MonitorDays = 1
	s.Game.Sweeps = 2
	s.Detector.Solver = "qmdp"
	return s
}

// --- Figure/Table regeneration benchmarks -------------------------------

func BenchmarkFig3PriceOnlyPrediction(b *testing.B) {
	spec := benchSpec()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4NetMeteringPrediction(b *testing.B) {
	spec := benchSpec()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Attack(b *testing.B) {
	spec := benchSpec()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ObservationAccuracy(b *testing.B) {
	spec := benchSpec()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DetectionComparison(b *testing.B) {
	spec := benchSpec()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate benchmarks ------------------------------------------------

func benchCommunity(b *testing.B, n int) ([]*household.Customer, [][]float64) {
	b.Helper()
	gen := household.DefaultGenerator()
	customers, err := gen.Generate(n, rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	pv, err := household.CommunityPVTraces(customers, solar.DefaultModel(), 1, rng.New(43))
	if err != nil {
		b.Fatal(err)
	}
	return customers, pv
}

func benchPrice() timeseries.Series {
	p := make(timeseries.Series, 24)
	for h := range p {
		p[h] = 0.06 + 0.05*math.Sin(float64(h)/24*2*math.Pi)
		if p[h] < 0.02 {
			p[h] = 0.02
		}
	}
	return p
}

// BenchmarkGameSolveNetMetering measures one Algorithm-1 solve (DP + CE per
// customer, Gauss-Seidel sweeps) for a 50-home community.
func BenchmarkGameSolveNetMetering(b *testing.B) {
	customers, pv := benchCommunity(b, 50)
	q, _ := tariff.NewQuadratic(1.5)
	cfg := game.DefaultConfig(q, true)
	cfg.MaxSweeps = 2
	price := benchPrice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.Solve(context.Background(), nil, customers, price, pv, cfg, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGameSolveBaseline is the [9]-style no-net-metering ablation: the
// cost of the community model the NM-blind detector reasons with.
func BenchmarkGameSolveBaseline(b *testing.B) {
	customers, _ := benchCommunity(b, 50)
	q, _ := tariff.NewQuadratic(1.5)
	cfg := game.DefaultConfig(q, false)
	cfg.MaxSweeps = 2
	price := benchPrice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.Solve(context.Background(), nil, customers, price, nil, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkGameSolveParallel measures the block-Jacobi solve of a
// 24-customer net-metering community (JacobiBlock 8) at a given worker
// count. Workers is a pure execution knob, so the three variants below solve
// the exact same game to the same bits — the ratio of their wall-clock times
// is the parallel speedup of the hot path (record baselines in
// BENCH_game_parallel.json; a ≥ 2.5× Parallel1/Parallel8 ratio is expected
// on ≥ 8 free cores).
func benchmarkGameSolveParallel(b *testing.B, workers int) {
	customers, pv := benchCommunity(b, 24)
	q, _ := tariff.NewQuadratic(1.5)
	cfg := game.DefaultConfig(q, true)
	cfg.MaxSweeps = 2
	cfg.JacobiBlock = 8
	cfg.Workers = workers
	price := benchPrice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.Solve(context.Background(), nil, customers, price, pv, cfg, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGameSolveParallel1(b *testing.B) { benchmarkGameSolveParallel(b, 1) }
func BenchmarkGameSolveParallel4(b *testing.B) { benchmarkGameSolveParallel(b, 4) }
func BenchmarkGameSolveParallel8(b *testing.B) { benchmarkGameSolveParallel(b, 8) }

// BenchmarkGameSolveWorkspace is the workspace counterpart of Parallel1: the
// exact same 24-customer block-Jacobi solve, but through game.Solve with a
// workspace reused across iterations — the engine's steady-state shape. The
// contract (enforced by TestSolveWSActiveTolZeroIdentity) is bitwise-identical
// results; the payoff measured here is allocations. Record alongside the
// Parallel baselines in BENCH_hotpath.json; a ≥ 5× allocs/op reduction vs
// Parallel1 is the expected steady state.
func BenchmarkGameSolveWorkspace(b *testing.B) {
	customers, pv := benchCommunity(b, 24)
	q, _ := tariff.NewQuadratic(1.5)
	cfg := game.DefaultConfig(q, true)
	cfg.MaxSweeps = 2
	cfg.JacobiBlock = 8
	cfg.Workers = 1
	price := benchPrice()
	ws := game.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.Solve(context.Background(), ws, customers, price, pv, cfg, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkGameSolveActiveSet measures the residual-gated sweep on the
// deterministic no-net-metering model (the regime where customers actually go
// stationary — see DESIGN.md §10) with a generous sweep budget, gated vs
// ungated. The off variant is the honest baseline: identical config except
// ActiveTol=0.
func benchmarkGameSolveActiveSet(b *testing.B, tol float64) {
	customers, _ := benchCommunity(b, 24)
	q, _ := tariff.NewQuadratic(1.5)
	cfg := game.DefaultConfig(q, false)
	cfg.MaxSweeps = 4
	cfg.Tol = 1e-12
	cfg.ActiveTol = tol
	price := benchPrice()
	ws := game.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.Solve(context.Background(), ws, customers, price, nil, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGameSolveActiveSet(b *testing.B)    { benchmarkGameSolveActiveSet(b, 0.05) }
func BenchmarkGameSolveActiveSetOff(b *testing.B) { benchmarkGameSolveActiveSet(b, 0) }

// --- Paper-scale curve (BENCH_scale.json) --------------------------------

// scaleShards returns the shard count the scale curve runs an n-customer
// community with: near-64-customer shards, so 500 customers land on the same
// 8 shards as the scale500 preset and 24 customers stay on the flat solver
// (shards <= 1 is the reference semantics — the curve's small-N anchor is
// exactly today's path).
func scaleShards(n int) int { return (n + 63) / 64 }

// benchmarkScaleSolve is one point of the customers-vs-ns/op curve: a full
// Algorithm-1 solve (MaxSweeps 2, net metering on) of an n-customer
// community through the hierarchical solver with scaleShards(n) shards and a
// reused workspace — the steady-state shape of the sharded engine's day loop.
func benchmarkScaleSolve(b *testing.B, n int) {
	customers, pv := benchCommunity(b, n)
	q, _ := tariff.NewQuadratic(1.5)
	cfg := game.DefaultConfig(q, true)
	cfg.MaxSweeps = 2
	cfg.Shards = scaleShards(n)
	price := benchPrice()
	ws := game.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.Solve(context.Background(), ws, customers, price, pv, cfg, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleSolve24(b *testing.B)  { benchmarkScaleSolve(b, 24) }
func BenchmarkScaleSolve100(b *testing.B) { benchmarkScaleSolve(b, 100) }
func BenchmarkScaleSolve500(b *testing.B) { benchmarkScaleSolve(b, 500) }

var (
	benchScaleOut = flag.String("bench-scale-out", "",
		"write the customers-vs-ns/op curve to this JSON path (empty = skip TestWriteBenchScale)")
	benchScaleSizes = flag.String("bench-scale-sizes", "24,100,500",
		"comma-separated community sizes for the scale curve")
)

// TestWriteBenchScale runs the scale curve at the sizes given by
// -bench-scale-sizes and writes BENCH_scale.json-shaped output to
// -bench-scale-out, labelled with the execution environment (Go version,
// GOMAXPROCS, NumCPU). It fails if the curve is not strictly monotone in N
// or if ns/op grows quadratically or worse from the first point to the last
// — the sub-quadratic claim the hierarchical solver exists to make good on.
// `make bench-scale` records the paper curve; `make bench-scale-smoke` runs
// tiny sizes as a CI guard. Skipped unless -bench-scale-out is set.
func TestWriteBenchScale(t *testing.T) {
	if *benchScaleOut == "" {
		t.Skip("set -bench-scale-out to record the scale curve")
	}
	var sizes []int
	for _, f := range strings.Split(*benchScaleSizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 4 {
			t.Fatalf("bad -bench-scale-sizes entry %q", f)
		}
		sizes = append(sizes, n)
	}

	type point struct {
		N         int     `json:"n"`
		Shards    int     `json:"shards"`
		NsPerOp   float64 `json:"ns_per_op"`
		BytesOp   int64   `json:"bytes_per_op"`
		AllocsOp  int64   `json:"allocs_per_op"`
		NsPerCust float64 `json:"ns_per_customer"`
	}
	var curve []point
	for _, n := range sizes {
		n := n
		r := testing.Benchmark(func(b *testing.B) { benchmarkScaleSolve(b, n) })
		p := point{
			N:         n,
			Shards:    scaleShards(n),
			NsPerOp:   float64(r.NsPerOp()),
			BytesOp:   r.AllocedBytesPerOp(),
			AllocsOp:  r.AllocsPerOp(),
			NsPerCust: float64(r.NsPerOp()) / float64(n),
		}
		curve = append(curve, p)
		t.Logf("N=%d shards=%d: %.0f ns/op (%.0f ns/customer)", p.N, p.Shards, p.NsPerOp, p.NsPerCust)
	}

	// Monotone in N, with a 5% margin: at small sizes a point can sit within
	// scheduler noise of its neighbour, and the claim being guarded is shape,
	// not per-point precision.
	for i := 1; i < len(curve); i++ {
		if curve[i].NsPerOp <= curve[i-1].NsPerOp*0.95 {
			t.Errorf("curve not monotone: N=%d at %.0f ns/op <= N=%d at %.0f ns/op",
				curve[i].N, curve[i].NsPerOp, curve[i-1].N, curve[i-1].NsPerOp)
		}
	}
	var growth float64
	if len(curve) >= 2 {
		first, last := curve[0], curve[len(curve)-1]
		nRatio := float64(last.N) / float64(first.N)
		growth = last.NsPerOp / first.NsPerOp
		if growth >= nRatio*nRatio {
			t.Errorf("ns/op growth %.1fx over a %.1fx size increase is quadratic or worse", growth, nRatio)
		}
	}

	out := map[string]any{
		"description": "Customers-vs-ns/op curve for the hierarchical (sharded) game solve: " +
			"one MaxSweeps-2 net-metering solve per op, shards ~= N/64 (500 customers = the " +
			"scale500 preset's 8 shards). Regenerate with `make bench-scale`.",
		"go":          runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"curve":       curve,
		"growth_frac": growth,
	}
	f, err := os.Create(*benchScaleOut)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("bench-scale: wrote %d points to %s\n", len(curve), *benchScaleOut)
}

// --- Fleet curve (BENCH_fleet.json) --------------------------------------

var (
	benchFleetOut = flag.String("bench-fleet-out", "",
		"write the total-meters-vs-ns/op fleet curve to this JSON path (empty = skip TestWriteBenchFleet)")
	benchFleetShapes = flag.String("bench-fleet-shapes", "2x500,8x500,20x500",
		"comma-separated FxN fleet shapes (F communities of N meters) for the fleet curve")
)

// benchFleetEngines builds one engine per community for an FxN fleet point:
// fleet-derived seeds, the sharded solver at scaleShards(n), MaxSweeps 2 —
// the same per-community configuration the scale curve runs flat.
func benchFleetEngines(tb testing.TB, f, n int) []*community.Engine {
	tb.Helper()
	engines := make([]*community.Engine, f)
	for i := range engines {
		cfg := community.DefaultConfig(n, fleet.CommunitySeed(42, i))
		cfg.GameSweeps = 2
		cfg.Shards = scaleShards(n)
		eng, err := community.NewEngine(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		engines[i] = eng
	}
	return engines
}

// benchmarkFleetSimDay is one point of the fleet curve: one shared fleet
// tick (fleet.SimDay — every community prepares and simulates one
// net-metering day) over F communities of n meters. Engines are built
// outside the timer; the op is the steady-state day loop.
func benchmarkFleetSimDay(b *testing.B, f, n int) {
	engines := benchFleetEngines(b, f, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.SimDay(context.Background(), 0, engines, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetSimDay2x100(b *testing.B) { benchmarkFleetSimDay(b, 2, 100) }
func BenchmarkFleetSimDay4x100(b *testing.B) { benchmarkFleetSimDay(b, 4, 100) }

// TestWriteBenchFleet runs the fleet day loop at the shapes given by
// -bench-fleet-shapes (FxN = F communities of N meters) and writes
// BENCH_fleet.json-shaped output to -bench-fleet-out, labelled with the
// execution environment. It fails if ns/op is not monotone in total meters
// or grows quadratically or worse from the first shape to the last — the
// fleet exists precisely so total meters scale by adding communities, each
// solved at its own bounded size. `make bench-fleet` records the paper curve
// (the last shape is 10k meters); `make bench-fleet-smoke` runs tiny shapes
// as a CI guard. Skipped unless -bench-fleet-out is set.
func TestWriteBenchFleet(t *testing.T) {
	if *benchFleetOut == "" {
		t.Skip("set -bench-fleet-out to record the fleet curve")
	}
	type shape struct{ f, n int }
	var shapes []shape
	for _, entry := range strings.Split(*benchFleetShapes, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), "x", 2)
		if len(parts) != 2 {
			t.Fatalf("bad -bench-fleet-shapes entry %q (want FxN)", entry)
		}
		f, err1 := strconv.Atoi(parts[0])
		n, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || f < 1 || n < 4 {
			t.Fatalf("bad -bench-fleet-shapes entry %q (want FxN)", entry)
		}
		shapes = append(shapes, shape{f, n})
	}

	type point struct {
		Communities int     `json:"communities"`
		Size        int     `json:"size"`
		TotalMeters int     `json:"total_meters"`
		Shards      int     `json:"shards"`
		NsPerOp     float64 `json:"ns_per_op"`
		BytesOp     int64   `json:"bytes_per_op"`
		AllocsOp    int64   `json:"allocs_per_op"`
		NsPerMeter  float64 `json:"ns_per_meter"`
	}
	var curve []point
	for _, s := range shapes {
		s := s
		r := testing.Benchmark(func(b *testing.B) { benchmarkFleetSimDay(b, s.f, s.n) })
		p := point{
			Communities: s.f,
			Size:        s.n,
			TotalMeters: s.f * s.n,
			Shards:      scaleShards(s.n),
			NsPerOp:     float64(r.NsPerOp()),
			BytesOp:     r.AllocedBytesPerOp(),
			AllocsOp:    r.AllocsPerOp(),
			NsPerMeter:  float64(r.NsPerOp()) / float64(s.f*s.n),
		}
		curve = append(curve, p)
		t.Logf("%dx%d (%d meters): %.0f ns/op (%.0f ns/meter)",
			p.Communities, p.Size, p.TotalMeters, p.NsPerOp, p.NsPerMeter)
	}

	// Same shape guards as the scale curve: monotone in total meters with a
	// 5% noise margin, and sub-quadratic end to end.
	for i := 1; i < len(curve); i++ {
		if curve[i].TotalMeters <= curve[i-1].TotalMeters {
			t.Fatalf("-bench-fleet-shapes must grow in total meters: %d then %d",
				curve[i-1].TotalMeters, curve[i].TotalMeters)
		}
		if curve[i].NsPerOp <= curve[i-1].NsPerOp*0.95 {
			t.Errorf("curve not monotone: %d meters at %.0f ns/op <= %d meters at %.0f ns/op",
				curve[i].TotalMeters, curve[i].NsPerOp, curve[i-1].TotalMeters, curve[i-1].NsPerOp)
		}
	}
	var growth float64
	if len(curve) >= 2 {
		first, last := curve[0], curve[len(curve)-1]
		mRatio := float64(last.TotalMeters) / float64(first.TotalMeters)
		growth = last.NsPerOp / first.NsPerOp
		if growth >= mRatio*mRatio {
			t.Errorf("ns/op growth %.1fx over a %.1fx meter increase is quadratic or worse", growth, mRatio)
		}
	}

	out := map[string]any{
		"description": "Total-meters-vs-ns/op curve for the fleet day loop: one fleet.SimDay " +
			"tick per op over F communities of N meters each (fleet-derived seeds, MaxSweeps-2 " +
			"net-metering days, shards ~= N/64 per community). Regenerate with `make bench-fleet`.",
		"go":          runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"curve":       curve,
		"growth_frac": growth,
	}
	f, err := os.Create(*benchFleetOut)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("bench-fleet: wrote %d points to %s\n", len(curve), *benchFleetOut)
}

// BenchmarkGameSolveParallel4Events is the observability overhead guard: the
// same solve as Parallel4, but with a live event sink attached to the
// context (writing to io.Discard, so the cost measured is instrumentation,
// not disk). scripts/bench_obs_overhead.sh compares it against Parallel4 and
// fails the build if events-on costs more than the DESIGN.md §9 budget (5%).
func BenchmarkGameSolveParallel4Events(b *testing.B) {
	customers, pv := benchCommunity(b, 24)
	q, _ := tariff.NewQuadratic(1.5)
	cfg := game.DefaultConfig(q, true)
	cfg.MaxSweeps = 2
	cfg.JacobiBlock = 8
	cfg.Workers = 4
	price := benchPrice()
	sink := obs.NewSink(io.Discard)
	defer sink.Close()
	ctx := obs.With(context.Background(), sink)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.Solve(ctx, nil, customers, price, pv, cfg, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePrepareDay measures the parallel per-customer PV generation
// path of the engine's day preparation.
func BenchmarkEnginePrepareDay(b *testing.B) {
	cfg := community.DefaultConfig(100, 42)
	engine, err := community.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.PrepareDay(context.Background(), true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPScheduler measures the per-appliance dynamic program.
func BenchmarkDPScheduler(b *testing.B) {
	a := &appliance.Appliance{
		Name: "ev", Levels: []float64{1.5, 3.0, 6.0}, Energy: 12, Start: 17, Deadline: 23,
	}
	price := benchPrice()
	cost := func(h int, x float64) float64 { return price[h] * x }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dpsched.Schedule(a, 24, cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPSchedulerContiguous measures the non-preemptible scheduling
// extension (enumerate start × level instead of the energy-lattice DP).
func BenchmarkDPSchedulerContiguous(b *testing.B) {
	a := &appliance.Appliance{
		Name: "washer", Levels: []float64{0.5, 1.0, 2.0}, Energy: 2,
		Start: 6, Deadline: 22, Contiguous: true,
	}
	price := benchPrice()
	cost := func(h int, x float64) float64 { return price[h] * x }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dpsched.Schedule(a, 24, cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCEOptimizerBattery measures the cross-entropy battery-trajectory
// optimization on its production problem size (24 dimensions).
func BenchmarkCEOptimizerBattery(b *testing.B) {
	price := benchPrice()
	load := make([]float64, 24)
	pv := make([]float64, 24)
	for h := range load {
		load[h] = 1.2
		if h >= 10 && h < 16 {
			pv[h] = 2.5
		}
	}
	objective := func(x []float64) float64 {
		total, prev := 0.0, 2.0
		for t := 0; t < 24; t++ {
			y := load[t] - pv[t] + x[t] - prev
			if y > 0 {
				total += price[t] * y * y
			}
			prev = x[t]
		}
		return total
	}
	lo := make([]float64, 24)
	hi := make([]float64, 24)
	for i := range hi {
		hi[i] = 8
	}
	opts := ceopt.DefaultOptions()
	opts.Samples = 40
	opts.MaxIter = 25
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ceopt.Minimize(context.Background(), objective, lo, hi, nil, rng.New(uint64(i+1)), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Learning ablations ---------------------------------------------------

func benchTrainingSet(n int) ([][]float64, []float64) {
	s := rng.New(11)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, c := s.Range(0, 5), s.Range(0, 5)
		x[i] = []float64{a, c}
		y[i] = math.Sin(a) + 0.5*c + s.Normal(0, 0.02)
	}
	return x, y
}

// BenchmarkSVRTrainLSSVM measures the default forecaster trainer (one dense
// linear solve).
func BenchmarkSVRTrainLSSVM(b *testing.B) {
	x, y := benchTrainingSet(150)
	opts := svr.DefaultLSSVMOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svr.TrainLSSVM(x, y, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVRTrainEpsSVR measures the SMO-trained ε-SVR alternative.
func BenchmarkSVRTrainEpsSVR(b *testing.B) {
	x, y := benchTrainingSet(150)
	opts := svr.DefaultEpsSVROptions()
	opts.MaxSweeps = 60
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svr.TrainEpsSVR(x, y, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecastTrainAware measures training the G(p, V, D) price
// forecaster on a week of history.
func BenchmarkForecastTrainAware(b *testing.B) {
	hist := benchHistory(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forecast.Train(hist, forecast.ModeNetMeteringAware, forecast.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchHistory(b *testing.B, days int) tariff.History {
	b.Helper()
	form := tariff.DefaultFormation()
	var hist tariff.History
	src := rng.New(5)
	for d := 0; d < days; d++ {
		scale := src.Range(0.2, 1.0)
		demand := make(timeseries.Series, 24)
		ren := make(timeseries.Series, 24)
		for h := 0; h < 24; h++ {
			demand[h] = 60 + 40*math.Sin(float64(h)/24*2*math.Pi)
			if h >= 10 && h < 16 {
				ren[h] = 50 * scale
			}
		}
		price, err := form.Publish(demand, ren, 100, true, src)
		if err != nil {
			b.Fatal(err)
		}
		for h := 0; h < 24; h++ {
			hist.Append(price[h], ren[h], demand[h])
		}
	}
	return hist
}

// --- POMDP policy ablations ------------------------------------------------

func benchDetectionModel(b *testing.B) *pomdp.Model {
	b.Helper()
	params := detect.DefaultModelParams(100, 0.01, 0.3)
	params.CalibSamples = 1500
	m, err := detect.BuildModel(params)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkPolicyPBVI measures solving the detection POMDP with point-based
// value iteration (the faithful solver).
func BenchmarkPolicyPBVI(b *testing.B) {
	m := benchDetectionModel(b)
	opts := pomdp.DefaultPBVIOptions()
	opts.NumBeliefs = 60
	opts.Iterations = 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pomdp.SolvePBVI(context.Background(), m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyQMDP measures the fast QMDP approximation (ablation).
func BenchmarkPolicyQMDP(b *testing.B) {
	m := benchDetectionModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pomdp.SolveQMDP(context.Background(), m, 1e-9, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBeliefUpdate measures the per-slot Bayesian filter step.
func BenchmarkBeliefUpdate(b *testing.B) {
	m := benchDetectionModel(b)
	belief := pomdp.UniformBelief(m.NumStates)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		belief, _ = m.Update(belief, i%2, i%m.NumObs)
	}
}

// BenchmarkModelCalibration measures the Monte-Carlo construction of the
// detection POMDP's T and Ω.
func BenchmarkModelCalibration(b *testing.B) {
	params := detect.DefaultModelParams(100, 0.01, 0.3)
	params.CalibSamples = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.BuildModel(params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignStep measures the attack-campaign state process.
func BenchmarkCampaignStep(b *testing.B) {
	camp, err := attack.NewCampaign(500, 0.3, 5, 20, attack.ZeroWindow{From: 16, To: 17})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp.Step(src)
		if i%48 == 47 {
			camp.Repair()
		}
	}
}

// --- Supervision curve (BENCH_supervise.json) -----------------------------

var (
	benchSupOut = flag.String("bench-supervise-out", "",
		"write the worker-processes-vs-wall-clock supervision curve to this JSON path (empty = skip TestWriteBenchSupervise)")
	benchSupShape = flag.String("bench-supervise-shape", "20x500",
		"FxN fleet shape (F communities of N meters) for the supervision curve")
	benchSupProcs = flag.String("bench-supervise-procs", "1,2,4",
		"comma-separated worker-process counts for the supervision curve")
)

// TestWriteBenchSupervise times full supervised fleet runs — cmd/nmfleet
// spawning one nmdetect worker process per community batch — at the shape
// given by -bench-supervise-shape across the -bench-supervise-procs process
// fan-outs, and writes BENCH_supervise.json-shaped output labelled with the
// execution environment (GOMAXPROCS, CPU count). Each point records wall
// clock plus the retried/failed batch counts from the merged report; a run
// with failed batches fails the harness, since the curve is only meaningful
// for clean runs. `make bench-supervise` records the paper shape (20x500 =
// 10k meters); `make bench-supervise-smoke` runs a tiny shape as a CI guard.
// Skipped unless -bench-supervise-out is set.
func TestWriteBenchSupervise(t *testing.T) {
	if *benchSupOut == "" {
		t.Skip("set -bench-supervise-out to record the supervision curve")
	}
	parts := strings.SplitN(strings.TrimSpace(*benchSupShape), "x", 2)
	if len(parts) != 2 {
		t.Fatalf("bad -bench-supervise-shape %q (want FxN)", *benchSupShape)
	}
	comms, err1 := strconv.Atoi(parts[0])
	size, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || comms < 2 || size < 4 {
		t.Fatalf("bad -bench-supervise-shape %q (want FxN, F >= 2)", *benchSupShape)
	}
	var procsList []int
	for _, entry := range strings.Split(*benchSupProcs, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(entry))
		if err != nil || p < 1 {
			t.Fatalf("bad -bench-supervise-procs entry %q", entry)
		}
		procsList = append(procsList, p)
	}

	// The curve times the real binaries end to end: process spawn, worker
	// bootstrap, checkpoint writes, report merge.
	bin := t.TempDir()
	for _, b := range []struct{ out, pkg string }{
		{"nmfleet", "./cmd/nmfleet"},
		{"nmdetect", "./cmd/nmdetect"},
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, b.out), b.pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.out, err, out)
		}
	}

	const days, boot, sweeps = 2, 4, 2
	type point struct {
		Procs      int     `json:"procs"`
		WallMS     float64 `json:"wall_ms"`
		MSPerMeter float64 `json:"ms_per_meter"`
		Retried    int     `json:"retried"`
		Failed     int     `json:"failed"`
	}
	var curve []point
	for _, procs := range procsList {
		workdir := filepath.Join(t.TempDir(), "work")
		if err := os.Mkdir(workdir, 0o755); err != nil {
			t.Fatal(err)
		}
		reportPath := filepath.Join(filepath.Dir(workdir), "fleet.json")
		cmd := exec.Command(filepath.Join(bin, "nmfleet"),
			"-workdir", workdir,
			"-report", reportPath,
			"-worker-bin", filepath.Join(bin, "nmdetect"),
			"-n", strconv.Itoa(size),
			"-communities", strconv.Itoa(comms),
			"-days", strconv.Itoa(days),
			"-boot", strconv.Itoa(boot),
			"-sweeps", strconv.Itoa(sweeps),
			"-solver", "qmdp",
			"-seed", "42",
			"-batch-size", "1",
			"-procs", strconv.Itoa(procs),
			"-checkpoint-every", "1",
		)
		cmd.Stdout = io.Discard
		start := time.Now()
		if err := cmd.Run(); err != nil {
			t.Fatalf("procs=%d: nmfleet: %v", procs, err)
		}
		wall := time.Since(start)
		raw, err := os.ReadFile(reportPath)
		if err != nil {
			t.Fatal(err)
		}
		var rep fleet.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("procs=%d: %d batches failed; the curve only covers clean runs", procs, rep.Failed)
		}
		retried := 0
		for _, c := range rep.PerCommunity {
			if c.Status == fleet.StatusRetried {
				retried++
			}
		}
		p := point{
			Procs:      procs,
			WallMS:     float64(wall.Milliseconds()),
			MSPerMeter: float64(wall.Milliseconds()) / float64(comms*size),
			Retried:    retried,
			Failed:     rep.Failed,
		}
		curve = append(curve, p)
		t.Logf("%dx%d procs=%d: %s wall, %d retried", comms, size, procs, wall.Round(time.Millisecond), retried)
	}

	out := map[string]any{
		"description": "Worker-processes-vs-wall-clock curve for the supervised fleet: one full " +
			"cmd/nmfleet run per point (F communities of N meters, batch size 1, one nmdetect " +
			"worker process per batch, qmdp solver) at each -procs fan-out. Wall clock includes " +
			"process spawn, bootstrap, per-day checkpoints and the report merge; speedup across " +
			"procs tracks the host's free cores. Regenerate with `make bench-supervise`.",
		"shape":          fmt.Sprintf("%dx%d", comms, size),
		"total_meters":   comms * size,
		"monitor_days":   days,
		"bootstrap_days": boot,
		"go":             runtime.Version(),
		"goos":           runtime.GOOS,
		"goarch":         runtime.GOARCH,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"curve":          curve,
	}
	f, err := os.Create(*benchSupOut)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("bench-supervise: wrote %d points to %s\n", len(curve), *benchSupOut)
}

// --- Serving curve (BENCH_serve.json) -------------------------------------

var (
	benchServeOut = flag.String("bench-serve-out", "",
		"write the concurrent-sessions-vs-readings/sec serving curve to this JSON path (empty = skip TestWriteBenchServe)")
	benchServeSessions = flag.String("bench-serve-sessions", "1,4,16",
		"comma-separated concurrent session counts for the serving curve")
	benchServeN = flag.Int("bench-serve-n", 8,
		"community size per session for the serving curve")
	benchServeDays = flag.Int("bench-serve-days", 3,
		"monitored days ingested per session for the serving curve")
)

// TestWriteBenchServe measures the nmserve daemon's sustained ingest rate:
// it starts the real binary over loopback HTTP, creates S concurrent
// sessions (bootstrap outside the timer — session creation is the offline
// phase), then times S client goroutines each streaming its session's full
// day horizon, and reports meter readings per second (S x N meters x 24
// slots x D days over wall clock). One daemon per point, default
// -checkpoint-every 1, so every acknowledged day pays its durability cost
// inside the timer — the number is the end-to-end serving rate, not an
// in-memory one. The curve asserts throughput does not collapse as sessions
// grow (>= 50% of the single-session rate; on a single-core runner extra
// sessions buy concurrency, not parallelism). `make bench-serve` records
// 1/4/16 sessions; `make bench-serve-smoke` is the CI guard. Skipped unless
// -bench-serve-out is set.
func TestWriteBenchServe(t *testing.T) {
	if *benchServeOut == "" {
		t.Skip("set -bench-serve-out to record the serving curve")
	}
	var sessList []int
	for _, entry := range strings.Split(*benchServeSessions, ",") {
		s, err := strconv.Atoi(strings.TrimSpace(entry))
		if err != nil || s < 1 {
			t.Fatalf("bad -bench-serve-sessions entry %q", entry)
		}
		sessList = append(sessList, s)
	}
	if *benchServeN < 3 || *benchServeDays < 1 {
		t.Fatalf("bad serve bench shape: n=%d days=%d", *benchServeN, *benchServeDays)
	}

	bin := filepath.Join(t.TempDir(), "nmserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/nmserve").CombinedOutput(); err != nil {
		t.Fatalf("building nmserve: %v\n%s", err, out)
	}

	post := func(url string, body []byte) (*http.Response, error) {
		return http.Post(url, "application/json", bytes.NewReader(body))
	}

	type point struct {
		Sessions       int     `json:"sessions"`
		WallMS         float64 `json:"wall_ms"`
		ReadingsPerSec float64 `json:"readings_per_sec"`
	}
	var curve []point
	for _, sessions := range sessList {
		state := t.TempDir()
		addrFile := filepath.Join(state, "bound.addr")
		cmd := exec.Command(bin, "-state", state, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-checkpoint-every", "1")
		var errb bytes.Buffer
		cmd.Stderr = &errb
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}()
		var base string
		for deadline := time.Now().Add(30 * time.Second); ; {
			if raw, err := os.ReadFile(addrFile); err == nil {
				base = "http://" + strings.TrimSpace(string(raw))
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("nmserve did not come up; stderr:\n%s", errb.String())
			}
			time.Sleep(20 * time.Millisecond)
		}

		// Untimed: create the sessions (each runs its offline bootstrap).
		ids := make([]string, sessions)
		for i := range ids {
			spec := scenario.Default(*benchServeN, uint64(1000+i))
			spec.Horizon.BootstrapDays = 4
			spec.Horizon.MonitorDays = *benchServeDays
			spec.Game.Sweeps = 2
			spec.Detector.Solver = "qmdp"
			ids[i] = fmt.Sprintf("bench-%d", i)
			body, err := json.Marshal(map[string]any{"id": ids[i], "scenario": spec})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := post(base+"/v1/sessions", body)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create session %d: %d", i, resp.StatusCode)
			}
		}

		// Timed: every session streams its full horizon concurrently.
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		start := time.Now()
		for i := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				for d := 0; d < *benchServeDays; d++ {
					resp, err := post(base+"/v1/sessions/"+id+"/days", []byte(fmt.Sprintf(`{"day":%d}`, d)))
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("session %s day %d: status %d", id, d, resp.StatusCode)
						return
					}
				}
			}(ids[i])
		}
		wg.Wait()
		wall := time.Since(start)
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck

		readings := float64(sessions * *benchServeN * 24 * *benchServeDays)
		p := point{
			Sessions:       sessions,
			WallMS:         float64(wall.Microseconds()) / 1e3,
			ReadingsPerSec: readings / wall.Seconds(),
		}
		curve = append(curve, p)
		t.Logf("sessions=%d: %s wall, %.0f readings/sec", sessions, wall.Round(time.Millisecond), p.ReadingsPerSec)
	}

	// Sanity asserts: more concurrent sessions must not collapse throughput.
	for i, p := range curve {
		if p.ReadingsPerSec <= 0 {
			t.Fatalf("sessions=%d: non-positive throughput", p.Sessions)
		}
		if i > 0 && p.ReadingsPerSec < 0.5*curve[0].ReadingsPerSec {
			t.Errorf("sessions=%d: throughput %.0f readings/sec fell below half the single-session rate %.0f",
				p.Sessions, p.ReadingsPerSec, curve[0].ReadingsPerSec)
		}
	}

	out := map[string]any{
		"description": "Concurrent-sessions-vs-ingest-rate curve for the nmserve daemon: one real " +
			"nmserve process per point over loopback HTTP, S sessions of N meters created untimed " +
			"(offline bootstrap), then S client goroutines each streaming D monitored days; " +
			"readings/sec = S x N x 24 x D over wall clock, with -checkpoint-every 1 so every " +
			"acknowledged day is durable inside the timer. Regenerate with `make bench-serve`.",
		"community_n":    *benchServeN,
		"monitor_days":   *benchServeDays,
		"bootstrap_days": 4,
		"go":             runtime.Version(),
		"goos":           runtime.GOOS,
		"goarch":         runtime.GOARCH,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"curve":          curve,
	}
	f, err := os.Create(*benchServeOut)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("bench-serve: wrote %d points to %s\n", len(curve), *benchServeOut)
}
