package experiments

import (
	"context"
	"fmt"
	"io"

	"nmdetect/internal/attack"
	"nmdetect/internal/battery"
	"nmdetect/internal/billing"
	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/forecast"
	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/metrics"
	"nmdetect/internal/mitigate"
	"nmdetect/internal/rng"
	"nmdetect/internal/scenario"
	"nmdetect/internal/svr"
	"nmdetect/internal/tariff"
)

// This file implements the ablation studies DESIGN.md section 5 calls out:
// each isolates one design choice of the reproduction and measures its
// effect on the pipeline's headline metrics.

// SolverAblationRow reports one POMDP policy solver variant.
type SolverAblationRow struct {
	Solver      core.PolicySolver
	Accuracy    float64
	PAR         float64
	Inspections int
}

// AblationSolver compares the three long-term policy solvers (PBVI, QMDP,
// myopic threshold) on identical worlds with the NM-aware kit.
func AblationSolver(ctx context.Context, spec scenario.Spec) ([]SolverAblationRow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rows := make([]SolverAblationRow, 0, 3)
	for _, solver := range []core.PolicySolver{core.SolverPBVI, core.SolverQMDP, core.SolverThreshold} {
		s := spec
		s.Detector.Solver = string(solver)
		opts, err := s.CoreOptions()
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(ctx, opts)
		if err != nil {
			return nil, err
		}
		camp, err := sys.NewCampaign()
		if err != nil {
			return nil, err
		}
		results, err := sys.MonitorDays(ctx, sys.Aware, camp, s.Horizon.MonitorDays, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SolverAblationRow{
			Solver:      solver,
			Accuracy:    core.ObservationAccuracy(results),
			PAR:         core.RealizedPAR(results),
			Inspections: core.TotalInspections(results),
		})
	}
	return rows, nil
}

// KernelAblationRow reports one forecaster kernel variant.
type KernelAblationRow struct {
	Kernel    string
	BlindRMSE float64
	AwareRMSE float64
}

// AblationKernel compares SVR kernels for the guideline-price forecaster on
// a flip-day evaluation (the Figure 3/4 scenario). The paper's formation is
// affine in net demand, so the linear kernel is the matched model class.
func AblationKernel(ctx context.Context, spec scenario.Spec) ([]KernelAblationRow, error) {
	kernels := []struct {
		name string
		opts svr.LSSVMOptions
	}{
		{"linear", svr.LSSVMOptions{Gamma: 100, Kernel: svr.LinearKernel{}}},
		{"rbf-wide", svr.LSSVMOptions{Gamma: 1000, Kernel: svr.RBFKernel{Gamma: 0.02}}},
		{"rbf-narrow", svr.LSSVMOptions{Gamma: 1000, Kernel: svr.RBFKernel{Gamma: 0.5}}},
		{"poly-2", svr.LSSVMOptions{Gamma: 100, Kernel: svr.PolyKernel{Degree: 2, Coef: 1}}},
	}

	engine, err := spec.NewEngine()
	if err != nil {
		return nil, err
	}
	if err := engine.Bootstrap(ctx, spec.Horizon.BootstrapDays, true); err != nil {
		return nil, err
	}
	env, err := flipDay(ctx, engine)
	if err != nil {
		return nil, err
	}

	rows := make([]KernelAblationRow, 0, len(kernels))
	for _, k := range kernels {
		fopts := forecast.DefaultOptions()
		fopts.LSSVM = k.opts
		blind, err := forecast.Train(engine.History(), forecast.ModePriceOnly, fopts)
		if err != nil {
			return nil, err
		}
		aware, err := forecast.Train(engine.History(), forecast.ModeNetMeteringAware, fopts)
		if err != nil {
			return nil, err
		}
		bp, err := blind.PredictDay(engine.History(), nil)
		if err != nil {
			return nil, err
		}
		ap, err := aware.PredictDay(engine.History(), env.RenewableForecast)
		if err != nil {
			return nil, err
		}
		blindRMSE, err := metrics.RMSE(bp, env.Published)
		if err != nil {
			return nil, err
		}
		awareRMSE, err := metrics.RMSE(ap, env.Published)
		if err != nil {
			return nil, err
		}
		rows = append(rows, KernelAblationRow{
			Kernel:    k.name,
			BlindRMSE: blindRMSE,
			AwareRMSE: awareRMSE,
		})
	}
	return rows, nil
}

// ForecastNoiseRow reports channel quality under one PV-forecast noise level.
type ForecastNoiseRow struct {
	Sigma  float64
	FP, FN float64
}

// AblationForecastNoise sweeps the day-ahead PV forecast error and measures
// the NM-aware observation channel's false-positive/negative rates. The
// paper assumes θ "approximately known in advance"; this quantifies how fast
// the channel degrades when it is not (the cross-entropy battery optimizer
// amplifies input perturbations).
func AblationForecastNoise(ctx context.Context, spec scenario.Spec, sigmas []float64) ([]ForecastNoiseRow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rows := make([]ForecastNoiseRow, 0, len(sigmas))
	for _, sigma := range sigmas {
		s := spec
		s.PV.ForecastSigma = sigma
		engine, err := s.NewEngine()
		if err != nil {
			return nil, err
		}
		if err := engine.Bootstrap(ctx, s.Horizon.BootstrapDays, true); err != nil {
			return nil, err
		}
		fc, err := forecast.Train(engine.History(), forecast.ModeNetMeteringAware, forecast.DefaultOptions())
		if err != nil {
			return nil, err
		}
		kit := &community.DetectorKit{Name: "aware", NetMetering: true, Forecaster: fc, FlagTau: 0.5}
		if err := engine.LearnBaselines(ctx, 2, kit); err != nil {
			return nil, err
		}
		fp, fn, err := engine.ChannelRates(ctx, kit, 0.4, attack.ZeroWindow{From: 16, To: 17})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ForecastNoiseRow{Sigma: sigma, FP: fp, FN: fn})
	}
	return rows, nil
}

// TauRow reports both channels' rates at one flag threshold.
type TauRow struct {
	Tau                float64
	AwareFP, AwareFN   float64
	BlindFP, BlindFN   float64
	AwareDen, BlindDen float64 // debias denominators 1−fp−fn
}

// AblationTau sweeps the deviation threshold τ and reports the calibrated
// channel rates of both detector variants.
func AblationTau(ctx context.Context, spec scenario.Spec, taus []float64) ([]TauRow, error) {
	engine, err := spec.NewEngine()
	if err != nil {
		return nil, err
	}
	if err := engine.Bootstrap(ctx, spec.Horizon.BootstrapDays, true); err != nil {
		return nil, err
	}
	fAware, err := forecast.Train(engine.History(), forecast.ModeNetMeteringAware, forecast.DefaultOptions())
	if err != nil {
		return nil, err
	}
	fBlind, err := forecast.Train(engine.History(), forecast.ModePriceOnly, forecast.DefaultOptions())
	if err != nil {
		return nil, err
	}

	atk := attack.ZeroWindow{From: 16, To: 17}
	rows := make([]TauRow, 0, len(taus))
	for _, tau := range taus {
		aware := &community.DetectorKit{Name: "aware", NetMetering: true, Forecaster: fAware, FlagTau: tau}
		blind := &community.DetectorKit{Name: "blind", NetMetering: false, Forecaster: fBlind, FlagTau: tau}
		if err := engine.LearnBaselines(ctx, 1, aware, blind); err != nil {
			return nil, err
		}
		afp, afn, err := engine.ChannelRates(ctx, aware, 0.4, atk)
		if err != nil {
			return nil, err
		}
		bfp, bfn, err := engine.ChannelRates(ctx, blind, 0.4, atk)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TauRow{
			Tau:     tau,
			AwareFP: afp, AwareFN: afn, AwareDen: 1 - afp - afn,
			BlindFP: bfp, BlindFN: bfn, BlindDen: 1 - bfp - bfn,
		})
	}
	return rows, nil
}

// SellBackRow reports community economics at one sell-back divisor W.
type SellBackRow struct {
	W             float64
	TotalCost     float64
	LoadPAR       float64
	GridEnergyNet float64 // Σ max(Σy, 0): energy actually drawn from the grid
}

// AblationSellBack sweeps the net-metering sell-back divisor W (W=1 is full
// retail net metering; larger W pays sellers less) and measures community
// cost and load shape — the policy knob net-metering programs debate.
func AblationSellBack(ctx context.Context, spec scenario.Spec, ws []float64) ([]SellBackRow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rows := make([]SellBackRow, 0, len(ws))
	for _, w := range ws {
		// The tariff only prices the game, so fresh engines with the same
		// seed keep every W on an identical community and day.
		s := spec
		s.Tariff.SellBackW = w
		engine, err := s.NewEngine()
		if err != nil {
			return nil, err
		}
		env, err := engine.PrepareDay(ctx, true)
		if err != nil {
			return nil, err
		}
		res, err := game.Solve(ctx, nil, engine.Customers(), env.Published, env.PV, engine.GameConfig(true), rng.New(engine.ControllerSeed()))
		if err != nil {
			return nil, err
		}
		total := 0.0
		for _, c := range res.Cost {
			total += c
		}
		gridNet := 0.0
		for _, v := range res.GridDemand {
			if v > 0 {
				gridNet += v
			}
		}
		rows = append(rows, SellBackRow{
			W:             w,
			TotalCost:     total,
			LoadPAR:       res.Load.PAR(),
			GridEnergyNet: gridNet,
		})
	}
	return rows, nil
}

// AttackRow reports one price-manipulation payload's community impact.
type AttackRow struct {
	Attack string
	// PAR of the community consumption when every meter is hacked.
	PAR float64
	// CostIncrease is the relative community bill increase vs the clean day
	// (the bill attack objective of [8]).
	CostIncrease float64
	// Detected reports whether the single-event detector fires.
	Detected bool
	// DeltaPAR is the single-event PAR gap P_r − P_p.
	DeltaPAR float64
}

// AblationAttacks compares the attack payloads of [8] — the PAR attack
// (zero-price window), load-attracting scaling, and the bill-maximizing
// price inversion — on the same community day, measuring realized PAR, bill
// impact and single-event detectability.
func AblationAttacks(ctx context.Context, spec scenario.Spec) ([]AttackRow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ccfg := spec.CommunityConfig()
	engine, err := community.NewEngine(ccfg)
	if err != nil {
		return nil, err
	}
	if err := engine.Bootstrap(ctx, spec.Horizon.BootstrapDays, true); err != nil {
		return nil, err
	}
	fc, err := forecast.Train(engine.History(), forecast.ModeNetMeteringAware, forecast.DefaultOptions())
	if err != nil {
		return nil, err
	}
	kit := &community.DetectorKit{Name: "aware", NetMetering: true, Forecaster: fc, FlagTau: 0.5}

	attacks := []attack.Attack{
		attack.None{},
		attack.ZeroWindow{From: 16, To: 17},
		attack.ScaleWindow{From: 0, To: 5, Factor: 0.1},
		attack.Invert{},
	}

	var cleanCost float64
	rows := make([]AttackRow, 0, len(attacks))
	for _, atk := range attacks {
		// Fresh engines with the same seed keep every payload on an
		// identical day.
		eng, err := community.NewEngine(ccfg)
		if err != nil {
			return nil, err
		}
		if err := eng.Bootstrap(ctx, spec.Horizon.BootstrapDays, true); err != nil {
			return nil, err
		}
		env, err := eng.PrepareDay(ctx, true)
		if err != nil {
			return nil, err
		}
		camp, err := attack.NewCampaign(spec.N, 0, 1, 1, atk)
		if err != nil {
			return nil, err
		}
		camp.HackNow(spec.N, rng.New(spec.Seed).Derive("ablation-attack"))

		predicted, err := kit.PredictPrice(eng, env)
		if err != nil {
			return nil, err
		}
		// δ_P sized so the clean control does not trip on prediction error.
		// The comparison then shows the PAR check's blind spot: the
		// zero-window PAR attack is caught with a wide margin, while the
		// bill-maximizing inversion barely moves PAR and slips through —
		// the very gap that motivates [7]'s long-term detection tier.
		se, err := eng.SingleEventKit(kit, env, 0.5)
		if err != nil {
			return nil, err
		}
		check, err := se.Check(ctx, predicted, atk.Apply(env.Published))
		if err != nil {
			return nil, err
		}
		trace, err := eng.SimulateDay(ctx, env, camp, true, nil)
		if err != nil {
			return nil, err
		}
		// Settle the day at the *published* price: customers scheduled
		// against the manipulated price but are billed on reality — the
		// monetary damage of the bill attack.
		q, err := tariff.NewQuadratic(1.5)
		if err != nil {
			return nil, err
		}
		settle, err := billing.Settle(q, env.Published, trace.CleanMeter)
		if err != nil {
			return nil, err
		}
		if trace.AttackedMeter != nil {
			settle, err = billing.Settle(q, env.Published, trace.AttackedMeter)
			if err != nil {
				return nil, err
			}
		}
		cost := settle.TotalBilled
		if _, ok := atk.(attack.None); ok {
			cleanCost = cost
		}
		inc := 0.0
		if cleanCost > 0 {
			inc = (cost - cleanCost) / cleanCost
		}
		rows = append(rows, AttackRow{
			Attack:       atk.Name(),
			PAR:          trace.Load.PAR(),
			CostIncrease: inc,
			Detected:     check.Attack,
			DeltaPAR:     check.ReceivedPAR - check.PredictedPAR,
		})
	}
	return rows, nil
}

// WindowSweepRow reports the attack impact of one zero-window position.
type WindowSweepRow struct {
	// From is the first zeroed slot (the window spans two slots, matching
	// Figure 5's 16:00–17:00 payload).
	From float64
	// PAR of the community consumption under the attack.
	PAR float64
}

// AblationAttackWindow sweeps the zero-price window across the day — the
// attacker's own optimization problem from [8]: where should the free window
// sit to maximize PAR? Evening windows coincide with the flexible-load
// concentration and dominate.
func AblationAttackWindow(ctx context.Context, spec scenario.Spec, starts []int) ([]WindowSweepRow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ccfg := spec.CommunityConfig()
	rows := make([]WindowSweepRow, 0, len(starts))
	for _, from := range starts {
		if from < 0 || from > 22 {
			return nil, fmt.Errorf("experiments: window start %d out of [0,22]", from)
		}
		eng, err := community.NewEngine(ccfg)
		if err != nil {
			return nil, err
		}
		if err := eng.Bootstrap(ctx, spec.Horizon.BootstrapDays, true); err != nil {
			return nil, err
		}
		env, err := eng.PrepareDay(ctx, true)
		if err != nil {
			return nil, err
		}
		camp, err := attack.NewCampaign(spec.N, 0, 1, 1, attack.ZeroWindow{From: from, To: from + 1})
		if err != nil {
			return nil, err
		}
		camp.HackNow(spec.N, rng.New(spec.Seed).Derive("window-sweep"))
		trace, err := eng.SimulateDay(ctx, env, camp, true, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WindowSweepRow{From: float64(from), PAR: trace.Load.PAR()})
	}
	return rows, nil
}

// BatteryAblationRow compares the community with and without storage.
type BatteryAblationRow struct {
	Variant   string
	TotalCost float64
	LoadPAR   float64
}

// AblationBattery isolates the cross-entropy battery optimization's
// contribution: the same community and day solved with batteries as drawn
// and with every battery removed.
func AblationBattery(ctx context.Context, spec scenario.Spec) ([]BatteryAblationRow, error) {
	engine, err := spec.NewEngine()
	if err != nil {
		return nil, err
	}
	env, err := engine.PrepareDay(ctx, true)
	if err != nil {
		return nil, err
	}
	gcfg := engine.GameConfig(true)

	solve := func(strip bool) (BatteryAblationRow, error) {
		customers := engine.Customers()
		if strip {
			stripped := make([]*household.Customer, len(customers))
			for i, c := range customers {
				clone := *c
				clone.Battery = battery.Battery{}
				stripped[i] = &clone
			}
			customers = stripped
		}
		res, err := game.Solve(ctx, nil, customers, env.Published, env.PV, gcfg, rng.New(engine.ControllerSeed()))
		if err != nil {
			return BatteryAblationRow{}, err
		}
		total := 0.0
		for _, c := range res.Cost {
			total += c
		}
		name := "with-batteries"
		if strip {
			name = "no-batteries"
		}
		return BatteryAblationRow{Variant: name, TotalCost: total, LoadPAR: res.Load.PAR()}, nil
	}

	with, err := solve(false)
	if err != nil {
		return nil, err
	}
	without, err := solve(true)
	if err != nil {
		return nil, err
	}
	return []BatteryAblationRow{with, without}, nil
}

// RenderWindowSweep prints the attack-window sweep.
func RenderWindowSweep(w io.Writer, rows []WindowSweepRow) {
	fmt.Fprintf(w, "%-8s %10s\n", "window", "PAR")
	for _, r := range rows {
		fmt.Fprintf(w, "%02.0f:00    %10.4f\n", r.From, r.PAR)
	}
}

// RenderBatteryAblation prints the storage comparison.
func RenderBatteryAblation(w io.Writer, rows []BatteryAblationRow) {
	fmt.Fprintf(w, "%-16s %14s %10s\n", "variant", "total cost", "load PAR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %14.2f %10.4f\n", r.Variant, r.TotalCost, r.LoadPAR)
	}
}

// MitigationResult quantifies the meter-side price filter extension
// (package mitigate): the community's PAR on an all-meters-hacked day with
// and without the filter in front of every scheduler.
type MitigationResult struct {
	CleanPAR     float64 // no attack
	AttackedPAR  float64 // zero-window attack, no filter
	FilteredPAR  float64 // zero-window attack, filter active
	ClampedSlots int     // slots the filter touched
}

// Mitigation runs the defense extension experiment.
func Mitigation(ctx context.Context, spec scenario.Spec) (*MitigationResult, error) {
	engine, err := spec.NewEngine()
	if err != nil {
		return nil, err
	}
	if err := engine.Bootstrap(ctx, spec.Horizon.BootstrapDays, true); err != nil {
		return nil, err
	}
	fc, err := forecast.Train(engine.History(), forecast.ModeNetMeteringAware, forecast.DefaultOptions())
	if err != nil {
		return nil, err
	}
	env, err := engine.PrepareDay(ctx, true)
	if err != nil {
		return nil, err
	}
	kit := &community.DetectorKit{Name: "aware", NetMetering: true, Forecaster: fc, FlagTau: 0.5}
	predicted, err := kit.PredictPrice(engine, env)
	if err != nil {
		return nil, err
	}

	atk := attack.ZeroWindow{From: 16, To: 17}
	attacked := atk.Apply(env.Published)
	sanitized, touched, err := mitigate.DefaultFilter().Sanitize(attacked, predicted)
	if err != nil {
		return nil, err
	}

	gcfg := engine.GameConfig(true)
	solve := func(price []float64) (float64, error) {
		res, err := game.Solve(ctx, nil, engine.Customers(), price, env.PV, gcfg, rng.New(engine.ControllerSeed()))
		if err != nil {
			return 0, err
		}
		return res.Load.PAR(), nil
	}
	cleanPAR, err := solve(env.Published)
	if err != nil {
		return nil, err
	}
	attackedPAR, err := solve(attacked)
	if err != nil {
		return nil, err
	}
	filteredPAR, err := solve(sanitized)
	if err != nil {
		return nil, err
	}
	return &MitigationResult{
		CleanPAR:     cleanPAR,
		AttackedPAR:  attackedPAR,
		FilteredPAR:  filteredPAR,
		ClampedSlots: len(touched),
	}, nil
}

// RenderAttackAblation prints the attack-payload comparison.
func RenderAttackAblation(w io.Writer, rows []AttackRow) {
	fmt.Fprintf(w, "%-24s %10s %12s %10s %10s\n", "attack", "PAR", "bill", "ΔPAR", "detected")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %10.4f %+11.1f%% %10.4f %10v\n",
			r.Attack, r.PAR, 100*r.CostIncrease, r.DeltaPAR, r.Detected)
	}
}

// RenderSolverAblation prints the solver comparison.
func RenderSolverAblation(w io.Writer, rows []SolverAblationRow) {
	fmt.Fprintf(w, "%-12s %10s %10s %12s\n", "solver", "accuracy", "PAR", "inspections")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %9.2f%% %10.4f %12d\n", r.Solver, 100*r.Accuracy, r.PAR, r.Inspections)
	}
}

// RenderKernelAblation prints the kernel comparison.
func RenderKernelAblation(w io.Writer, rows []KernelAblationRow) {
	fmt.Fprintf(w, "%-12s %14s %14s\n", "kernel", "blind RMSE", "aware RMSE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14.5f %14.5f\n", r.Kernel, r.BlindRMSE, r.AwareRMSE)
	}
}

// RenderForecastNoiseAblation prints the PV-forecast-noise sweep.
func RenderForecastNoiseAblation(w io.Writer, rows []ForecastNoiseRow) {
	fmt.Fprintf(w, "%-8s %10s %10s\n", "sigma", "fp", "fn")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8.3f %10.4f %10.4f\n", r.Sigma, r.FP, r.FN)
	}
}

// RenderTauAblation prints the threshold sweep.
func RenderTauAblation(w io.Writer, rows []TauRow) {
	fmt.Fprintf(w, "%-6s | %8s %8s %8s | %8s %8s %8s\n",
		"tau", "a.fp", "a.fn", "a.den", "b.fp", "b.fn", "b.den")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6.2f | %8.4f %8.4f %8.4f | %8.4f %8.4f %8.4f\n",
			r.Tau, r.AwareFP, r.AwareFN, r.AwareDen, r.BlindFP, r.BlindFN, r.BlindDen)
	}
}

// RenderSellBackAblation prints the W sweep.
func RenderSellBackAblation(w io.Writer, rows []SellBackRow) {
	fmt.Fprintf(w, "%-6s %14s %10s %16s\n", "W", "total cost", "load PAR", "grid energy kWh")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6.2f %14.2f %10.4f %16.1f\n", r.W, r.TotalCost, r.LoadPAR, r.GridEnergyNet)
	}
}
