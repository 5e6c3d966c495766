// Package community is the end-to-end simulation engine: the 500-customer
// neighborhood of Section 5 with its utility, PV fleet, attack campaign and
// detectors.
//
// A day in the engine proceeds as the paper describes:
//
//  1. The utility forms the next day's guideline price from its demand
//     forecast (and, with net metering deployed, the community renewable
//     forecast) and publishes it to every smart meter.
//  2. The attack campaign compromises meters hour by hour; hacked meters
//     receive the manipulated price instead.
//  3. Customers run smart home scheduling against the price their meter
//     received (package game), producing the realized community load.
//  4. A detector predicts the price independently, derives the expected
//     per-meter profiles, flags deviating meters each hour, and feeds the
//     counts to the POMDP long-term detector, which may order an inspection
//     that repairs every hacked meter.
//
// Hacked meters re-schedule from the hour of compromise, so a meter's
// realized profile is its clean schedule before the hack and its attacked
// schedule after (the day-start task energies are preserved by both
// schedules individually; the splice is the standard approximation).
package community

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nmdetect/internal/attack"
	"nmdetect/internal/faultinject"
	"nmdetect/internal/forecast"
	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/meterstate"
	"nmdetect/internal/obs"
	"nmdetect/internal/parallel"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

// Config assembles an engine.
type Config struct {
	// N is the community size (500 in the paper).
	N int
	// Seed drives every stochastic component through derived streams.
	Seed uint64
	// Generator draws the synthetic households.
	Generator household.Generator
	// Solar is the PV generation model.
	Solar solar.Model
	// Formation is the utility's guideline-price process.
	Formation tariff.Formation
	// Tariff is the quadratic cost model.
	Tariff tariff.Quadratic
	// SolarForecastSigma is the relative noise of the day-ahead renewable
	// forecast ("approximately known in advance").
	SolarForecastSigma float64
	// MeasurementNoise is the per-meter, per-slot load measurement noise
	// (kW, truncated normal).
	MeasurementNoise float64
	// GameSweeps bounds best-response sweeps per solve (speed knob).
	GameSweeps int
	// UseDemandForecast upgrades the utility's demand basis from
	// "yesterday's realized load" to an SVR demand forecaster retrained on
	// the accumulated history (package forecast). Off by default: the
	// paper-scale experiments were calibrated against the simple basis.
	UseDemandForecast bool
	// Workers is the engine-wide concurrency budget: per-customer PV
	// generation, the clean/attacked solve pair of SimulateDay and the game
	// solver's intra-block fan-out all request workers from the shared
	// bounded pool (package parallel) up to this bound. 0 selects
	// runtime.NumCPU(); 1 runs fully sequentially. The value never affects
	// results — every concurrent unit draws from its own derived stream and
	// writes only its own slot (DESIGN.md "Parallel execution &
	// determinism").
	Workers int
	// GameJacobiBlock is the game solver's block-Jacobi partition size
	// (game.Config.JacobiBlock). 0 keeps the sequential Gauss-Seidel sweep
	// semantics; values > 1 unlock intra-sweep parallelism at the price of
	// slightly staler best-response totals. Unlike Workers this knob DOES
	// select a (deterministically) different equilibrium path, and it flows
	// through GameConfig so detectors reproduce the engine's solves exactly.
	GameJacobiBlock int
	// GameActiveTol is the game solver's residual-gated active-set tolerance
	// (game.Config.ActiveTol). 0 — the default — re-solves every customer
	// every sweep, bitwise identical to the historical engine; values > 0
	// skip customers whose neighborhood moved less than the tolerance. Like
	// GameJacobiBlock it selects a (deterministically) different equilibrium
	// path and flows through GameConfig so detectors match the engine.
	GameActiveTol float64
	// Shards is the hierarchical-solve shard count (game.Config.Shards):
	// values > 1 partition the community into that many contiguous shards
	// that solve their own inner fixed point and exchange only per-slot
	// aggregate trading vectors in an outer Jacobi loop. <= 1 — the default
	// — keeps the flat solver, bitwise identical to the historical engine
	// (test-enforced). Like GameJacobiBlock and GameActiveTol this knob
	// selects a (deterministically) different equilibrium path, and it flows
	// through GameConfig so detectors reproduce the engine's solves exactly.
	Shards int
	// Faults injects deterministic data-plane faults (meter-reading dropout
	// and corruption, stale guideline-price broadcasts, PV-sensor outages)
	// into every simulated day. The zero value injects nothing and leaves
	// the engine's behavior bitwise identical to a fault-free build. Faults
	// live on the measurement/broadcast plane: the physical community —
	// realized PV, loads, grid demand, history — is never corrupted; what
	// the utility and detectors *see* is.
	Faults faultinject.Config
}

// DefaultConfig mirrors the paper's simulation setup.
func DefaultConfig(n int, seed uint64) Config {
	return Config{
		N:         n,
		Seed:      seed,
		Generator: household.DefaultGenerator(),
		Solar:     solar.DefaultModel(),
		Formation: tariff.DefaultFormation(),
		Tariff:    tariff.Quadratic{W: 1.5},
		// The paper assumes θ is "approximately known in advance through
		// prediction"; the default makes the day-ahead PV forecast exact.
		// Non-zero values are an ablation knob: the cross-entropy battery
		// optimizer is sensitive to its inputs, so forecast error feeds
		// straight into the deviation channel's false positives.
		SolarForecastSigma: 0,
		MeasurementNoise:   0.05,
		GameSweeps:         3,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("community: size %d must be positive", c.N)
	}
	if math.IsNaN(c.SolarForecastSigma) || math.IsInf(c.SolarForecastSigma, 0) ||
		math.IsNaN(c.MeasurementNoise) || math.IsInf(c.MeasurementNoise, 0) ||
		c.SolarForecastSigma < 0 || c.MeasurementNoise < 0 {
		return errors.New("community: noise parameters must be finite and non-negative")
	}
	if c.GameSweeps < 1 {
		return fmt.Errorf("community: game sweeps %d must be positive", c.GameSweeps)
	}
	if c.Workers < 0 {
		return fmt.Errorf("community: negative worker count %d", c.Workers)
	}
	if c.GameJacobiBlock < 0 {
		return fmt.Errorf("community: negative Jacobi block size %d", c.GameJacobiBlock)
	}
	if math.IsNaN(c.GameActiveTol) || math.IsInf(c.GameActiveTol, 0) || c.GameActiveTol < 0 {
		return fmt.Errorf("community: active-set tolerance %v must be finite and non-negative", c.GameActiveTol)
	}
	if c.Shards < 0 {
		return fmt.Errorf("community: negative shard count %d", c.Shards)
	}
	if c.Shards > 1 && c.N < 2 {
		// The sharded game solver partitions customers and assumes n > 1
		// (game.ShardPlan); reject the 1-customer edge here with a routed
		// error instead of relying on the solver's silent flat fallback.
		return fmt.Errorf("community: hierarchical solve (%d shards) needs at least 2 customers, got %d", c.Shards, c.N)
	}
	if math.IsNaN(c.Tariff.W) || math.IsInf(c.Tariff.W, 0) || c.Tariff.W < 1 {
		return fmt.Errorf("community: tariff sell-back divisor W=%v must be >= 1 and finite", c.Tariff.W)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Solar.Validate(); err != nil {
		return err
	}
	return c.Formation.Validate()
}

// Engine is the live simulation state.
type Engine struct {
	cfg       Config
	customers []*household.Customer
	src       *rng.Source
	faults    *faultinject.Plan // nil when Config.Faults is zero
	hist      tariff.History
	day       int
	// lastLoad is the utility's demand forecast basis: the most recent
	// realized community consumption profile (24 slots).
	lastLoad timeseries.Series
	// lastPublished is the most recent price actually broadcast to the
	// community — the price a stuck head-end re-sends on a stale-broadcast
	// fault. Stale days chain: a stuck broadcast re-sends whatever went out
	// last, which may itself have been stale.
	lastPublished timeseries.Series
	// solveWS are the reusable game-solver workspaces for SimulateDay's
	// clean (0) and attacked (1) solves, which run concurrently and so need
	// one workspace each. Reuse across days keeps the per-day loop's
	// steady-state allocation flat without changing results (game.Workspace
	// documents the bitwise-reuse contract).
	solveWS [2]*game.Workspace
}

// NewEngine draws the community and prepares the utility state.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	customers, err := cfg.Generator.Generate(cfg.N, src.Derive("community"))
	if err != nil {
		return nil, err
	}
	var plan *faultinject.Plan
	if !cfg.Faults.IsZero() {
		if plan, err = faultinject.NewPlan(cfg.Faults); err != nil {
			return nil, err
		}
	}
	// Initial demand-forecast basis: base loads plus evenly spread task
	// energy (the utility's cold-start heuristic).
	last := make(timeseries.Series, 24)
	for _, c := range customers {
		perSlot := c.TotalTaskEnergy() / 24
		for h := 0; h < 24; h++ {
			last[h] += c.BaseLoadAt(h) + perSlot
		}
	}
	return &Engine{
		cfg: cfg, customers: customers, src: src, faults: plan,
		hist: tariff.History{}, lastLoad: last,
		solveWS: [2]*game.Workspace{game.NewWorkspace(), game.NewWorkspace()},
	}, nil
}

// Customers exposes the community (read-only use expected).
func (e *Engine) Customers() []*household.Customer { return e.customers }

// History returns the accumulated (price, renewable, demand) history.
func (e *Engine) History() tariff.History { return e.hist }

// Day returns the number of simulated days.
func (e *Engine) Day() int { return e.day }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// ControllerSeed is the seed of every smart controller's cross-entropy
// optimizer. Household controllers are deterministic functions of the price
// they receive: the engine's own solves and any detector's expected-profile
// solves share this seed, so a perfect price prediction reproduces a meter's
// behavior exactly. The deviation channel's noise therefore comes from price
// prediction error and measurement noise — the paper's mechanism — rather
// than from solver randomness.
func (e *Engine) ControllerSeed() uint64 { return e.cfg.Seed ^ 0xc0117011e5 }

// GameConfig builds the scheduling-game solver configuration the engine uses
// for the given community model. It is the one lowering into game.Config:
// the engine's own solves, every detector and the harnesses share it, so
// load predictions stay consistent with the engine's solves.
func (e *Engine) GameConfig(netMetering bool) game.Config {
	cfg := game.DefaultConfig(e.cfg.Tariff, netMetering)
	cfg.MaxSweeps = e.cfg.GameSweeps
	cfg.Workers = e.cfg.Workers
	cfg.JacobiBlock = e.cfg.GameJacobiBlock
	cfg.ActiveTol = e.cfg.GameActiveTol
	cfg.Shards = e.cfg.Shards
	return cfg
}

// DayEnvironment is the exogenous state of one simulated day.
type DayEnvironment struct {
	// Weather is the community-wide cloud state for the day.
	Weather solar.Weather
	// Published is the utility's guideline price for the day.
	Published timeseries.Series
	// PV holds each customer's realized generation (24 slots).
	PV [][]float64
	// PVForecast holds the day-ahead forecasts the predictors see.
	PVForecast [][]float64
	// Renewable is the realized community total Θ.
	Renewable timeseries.Series
	// RenewableForecast is the community-total forecast Θ̂.
	RenewableForecast timeseries.Series
	// Faults is the day's realized fault plan (nil on a fault-free engine).
	// It is drawn once in PrepareDay so the clean and attacked solve paths
	// of SimulateDay, and any detector consuming the environment, all see
	// the same faults.
	Faults *faultinject.DayFaults
}

// PrepareDay draws the day's weather and PV generation and publishes the
// guideline price. netMetering controls whether the utility discounts the
// renewable forecast when pricing (true reproduces the paper's deployed-net-
// metering setting). Cancelling the context aborts between per-customer PV
// draws and returns ctx.Err(); a nil ctx never cancels.
func (e *Engine) PrepareDay(ctx context.Context, netMetering bool) (*DayEnvironment, error) {
	defer obs.From(ctx).Span("engine.prepare_day")()
	daySrc := e.src.Derive(fmt.Sprintf("day-%d", e.day))
	env := &DayEnvironment{
		Weather:    e.cfg.Solar.DrawWeather(daySrc.Derive("weather")),
		PV:         make([][]float64, len(e.customers)),
		PVForecast: make([][]float64, len(e.customers)),
	}
	if e.faults != nil {
		env.Faults = e.faults.Day(e.day, len(e.customers))
	}
	// Per-customer generation is embarrassingly parallel: each customer
	// draws from a stream derived from its own ID (derivation does not
	// advance daySrc) and fills only its own row.
	if err := parallel.ForEach(ctx, e.cfg.Workers, len(e.customers), func(i int) error {
		c := e.customers[i]
		csrc := daySrc.Derive(fmt.Sprintf("pv-%d", c.ID))
		if c.HasPV() {
			trace := e.cfg.Solar.GenerateDay(c.Panel, env.Weather, csrc)
			env.PV[i] = trace
			env.PVForecast[i] = solar.Forecast(trace, e.cfg.SolarForecastSigma, csrc.Derive("forecast"))
		} else {
			env.PV[i] = make([]float64, 24)
			env.PVForecast[i] = make([]float64, 24)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// PV-sensor outage: the affected customer's day-ahead forecast feed
	// reads zero inside the window. The fault is on the sensor/telemetry
	// plane, so realized generation (env.PV) is untouched — the utility
	// prices and the detectors predict against a forecast that is missing
	// real generation.
	if df := env.Faults; df != nil {
		for i := range env.PVForecast {
			w := df.PVOutage[i]
			if w.From < 0 {
				continue
			}
			for h := range env.PVForecast[i] {
				if w.Active(h % 24) {
					env.PVForecast[i][h] = 0
				}
			}
		}
	}
	var err error
	if env.Renewable, err = solar.Aggregate(toSeries(env.PV)); err != nil {
		return nil, err
	}
	if env.RenewableForecast, err = solar.Aggregate(toSeries(env.PVForecast)); err != nil {
		return nil, err
	}
	env.Published, err = e.cfg.Formation.Publish(e.demandBasis(), env.RenewableForecast, e.cfg.N, netMetering, daySrc.Derive("price-noise"))
	if err != nil {
		return nil, err
	}
	// Stale broadcast: the head-end is stuck and the whole community
	// receives the previous day's published price again. The fresh price is
	// still formed above (keeping every derived stream identical), it just
	// never reaches the meters. Day 0 has nothing to be stale against.
	if df := env.Faults; df != nil && df.StalePrice && len(e.lastPublished) == len(env.Published) {
		env.Published = e.lastPublished.Clone()
	}
	return env, nil
}

// demandBasis returns the utility's demand forecast for pricing: yesterday's
// realized load by default, or the SVR demand forecaster's prediction when
// enabled and enough history has accumulated.
func (e *Engine) demandBasis() timeseries.Series {
	if !e.cfg.UseDemandForecast {
		return e.lastLoad
	}
	opts := forecast.DefaultOptions()
	if e.hist.Len() < (opts.LagDays+1)*24 {
		return e.lastLoad // cold start: not enough history to train
	}
	df, err := forecast.TrainDemandForecaster(e.hist, opts)
	if err != nil {
		return e.lastLoad
	}
	pred, err := df.PredictDay(e.hist)
	if err != nil {
		return e.lastLoad
	}
	return pred
}

func toSeries(rows [][]float64) []timeseries.Series {
	out := make([]timeseries.Series, len(rows))
	for i, r := range rows {
		out[i] = timeseries.Series(r)
	}
	return out
}

// DayTrace is the realized outcome of one simulated day.
type DayTrace struct {
	Env *DayEnvironment
	// CleanMeter[n][h] is meter n's net flow under the published price.
	CleanMeter [][]float64
	// AttackedMeter[n][h] is its net flow under the manipulated price (only
	// meaningful for meters that were hacked at some point).
	AttackedMeter [][]float64
	// RealizedMeter[n][h] is the spliced, noise-corrupted measurement the
	// utility actually records.
	RealizedMeter [][]float64
	// Load is the realized community consumption Σlₙ.
	Load timeseries.Series
	// GridDemand is the realized community net purchase Σyₙ (clamped at 0
	// for PAR purposes by callers; raw here).
	GridDemand timeseries.Series
	// TrueHacked[h] is the number of compromised meters during slot h.
	TrueHacked []int
	// RepairedAt records slots where an inspection repaired the fleet (-1
	// entries elsewhere are absent; this is a list of slot indices).
	RepairedAt []int
}

// InspectFn is consulted after each slot with the slot index and the per-slot
// flagged counts gathered so far; returning true triggers an immediate
// inspection (repair). Pass nil for no detection. A returned error aborts the
// day and propagates out of SimulateDay.
type InspectFn func(slot int, realized *DayTrace) (bool, error)

// SimulateDay runs one day under the campaign. The campaign's state persists
// across calls; inspections repair it. netMetering selects the community
// model (PV+battery vs plain consumption). Cancelling the context aborts the
// underlying game solves (see game.Solve) and returns ctx.Err(); a cancelled
// day does not advance the engine's utility state.
func (e *Engine) SimulateDay(ctx context.Context, env *DayEnvironment, camp *attack.Campaign, netMetering bool, inspect InspectFn) (*DayTrace, error) {
	defer obs.From(ctx).Span("engine.simulate_day")()
	if env == nil {
		return nil, errors.New("community: nil day environment")
	}
	if camp != nil && camp.N != e.cfg.N {
		return nil, fmt.Errorf("community: campaign size %d != community %d", camp.N, e.cfg.N)
	}
	if env.Faults != nil && env.Faults.Day != e.day {
		return nil, fmt.Errorf("community: environment prepared for day %d, engine is at day %d", env.Faults.Day, e.day)
	}
	daySrc := e.src.Derive(fmt.Sprintf("sim-%d", e.day))

	cfg := e.GameConfig(netMetering)
	pv := env.PV
	if !netMetering {
		pv = nil
	}

	// The clean and (with a campaign) attacked solves are independent
	// deterministic functions of their price: each seeds its own source
	// from the shared controller seed and only reads the community, so the
	// pair runs concurrently under the engine's worker budget. The attacked
	// solution is spliced per meter from its hack hour later.
	solve := func(price timeseries.Series, ws *game.Workspace, dst **game.Result) func() error {
		return func() error {
			var src *rng.Source
			if netMetering {
				src = rng.New(e.ControllerSeed())
			}
			res, err := game.Solve(ctx, ws, e.customers, price, pv, cfg, src)
			if err != nil {
				return err
			}
			*dst = res
			return nil
		}
	}
	var clean, attacked *game.Result
	tasks := []func() error{solve(env.Published, e.solveWS[0], &clean)}
	if camp != nil {
		tasks = append(tasks, solve(camp.Attack.Apply(env.Published), e.solveWS[1], &attacked))
	}
	if err := parallel.Do(ctx, e.cfg.Workers, tasks...); err != nil {
		return nil, err
	}

	nCust := len(e.customers)
	trace := &DayTrace{
		Env:           env,
		CleanMeter:    meterFlows(clean, netMetering),
		RealizedMeter: meterstate.NewRows(nCust, 24),
		Load:          make(timeseries.Series, 24),
		GridDemand:    make(timeseries.Series, 24),
		TrueHacked:    make([]int, 24),
	}

	cleanCons := clean.CustomerLoad
	attackedCons := cleanCons
	if attacked != nil {
		trace.AttackedMeter = meterFlows(attacked, netMetering)
		attackedCons = attacked.CustomerLoad
	}

	// Columnar views of the solved flows: the hour loop below scans across
	// all meters within one slot, so a slot-major layout turns each scan
	// into one contiguous walk instead of N row-pointer chases. The
	// transpose copies values verbatim and the loop keeps its meter index
	// order, so the realized trace is bitwise identical to the row-walk.
	cleanYCols := meterstate.NewColumns(nCust, 24)
	cleanYCols.FillFromRows(trace.CleanMeter)
	cleanLCols := meterstate.NewColumns(nCust, 24)
	cleanLCols.FillFromRows(cleanCons)
	attackedYCols, attackedLCols := cleanYCols, cleanLCols
	if attacked != nil {
		attackedYCols = meterstate.NewColumns(nCust, 24)
		attackedYCols.FillFromRows(trace.AttackedMeter)
		attackedLCols = meterstate.NewColumns(nCust, 24)
		attackedLCols.FillFromRows(attackedCons)
	}

	noiseSrc := daySrc.Derive("measurement")

	// Reading-falsification attacks lie on the monitoring channel: hacked
	// meters report a falsified value while their physical flows (and the
	// community sums) stay truthful.
	var ra attack.ReadingAttack
	if camp != nil {
		ra, _ = camp.Attack.(attack.ReadingAttack)
	}

	for h := 0; h < 24; h++ {
		if camp != nil {
			camp.StepAt(h, daySrc.Derive(fmt.Sprintf("campaign-%d", h)))
			trace.TrueHacked[h] = camp.Count()
		}
		yCol, lCol := cleanYCols.Col(h), cleanLCols.Col(h)
		ayCol, alCol := attackedYCols.Col(h), attackedLCols.Col(h)
		sumY, sumL := 0.0, 0.0
		for n := range e.customers {
			v := yCol[n]
			l := lCol[n]
			reported := v
			if camp != nil && camp.Hacked(n) {
				v = ayCol[n]
				l = alCol[n]
				reported = v
				if ra != nil {
					reported = ra.FalsifyReading(h, reported)
				}
			}
			// The noise draw always happens — even for a reading about to
			// be dropped — so the measurement stream is identical with and
			// without faults.
			noisy := reported + noiseSrc.Normal(0, e.cfg.MeasurementNoise)
			if df := env.Faults; df != nil {
				if fv := df.Readings[n][h]; math.IsNaN(fv) {
					noisy = math.NaN() // reading lost (or rejected as garbage)
				} else {
					noisy += fv // additive falsification spike (0 = clean)
				}
			}
			trace.RealizedMeter[n][h] = noisy
			sumY += v
			sumL += l
		}
		trace.GridDemand[h] = sumY
		trace.Load[h] = sumL
		if inspect != nil {
			repair, err := inspect(h, trace)
			if err != nil {
				return nil, fmt.Errorf("community: inspect at slot %d: %w", h, err)
			}
			if repair {
				if camp != nil {
					camp.Repair()
				}
				trace.RepairedAt = append(trace.RepairedAt, h)
			}
		}
	}

	// Advance utility state: record history and refresh the demand forecast
	// basis with the realized consumption.
	for h := 0; h < 24; h++ {
		e.hist.Append(env.Published[h], env.Renewable[h], trace.Load[h])
	}
	e.lastLoad = trace.Load.Clone()
	e.lastPublished = env.Published.Clone()
	e.day++
	return trace, nil
}

// meterFlows extracts what each meter records from a game solution: the net
// flow yₙ under net metering, the consumption lₙ otherwise.
func meterFlows(res *game.Result, netMetering bool) [][]float64 {
	if netMetering {
		return res.CustomerTrading
	}
	return res.CustomerLoad
}

// EngineState is the serializable snapshot of the engine's mutable utility
// state. The community draw and every per-day RNG stream are pure functions
// of (Seed, day) — Derive never advances the parent source — so no generator
// state needs to be stored: rebuilding the engine from the same Config and
// restoring this snapshot reproduces the remaining days bit for bit.
type EngineState struct {
	Day           int
	Hist          tariff.History
	LastLoad      timeseries.Series
	LastPublished timeseries.Series
}

// cloneOrNil deep-copies a series, preserving nil-ness (Series.Clone turns
// nil into an empty slice, which would change stale-broadcast behavior).
func cloneOrNil(s timeseries.Series) timeseries.Series {
	if s == nil {
		return nil
	}
	return s.Clone()
}

// State captures the engine's mutable state for checkpointing.
func (e *Engine) State() EngineState {
	return EngineState{
		Day: e.day,
		Hist: tariff.History{
			Price:     e.hist.Price.Clone(),
			Renewable: e.hist.Renewable.Clone(),
			Demand:    e.hist.Demand.Clone(),
		},
		LastLoad:      cloneOrNil(e.lastLoad),
		LastPublished: cloneOrNil(e.lastPublished),
	}
}

// RestoreState reinstates a snapshot previously captured with State on an
// engine rebuilt from the same Config.
func (e *Engine) RestoreState(st EngineState) error {
	if st.Day < 0 {
		return fmt.Errorf("community: snapshot day %d negative", st.Day)
	}
	if st.Hist.Len() > 0 {
		if err := st.Hist.Validate(); err != nil {
			return fmt.Errorf("community: snapshot history: %w", err)
		}
	}
	if st.Hist.Len() != st.Day*24 {
		return fmt.Errorf("community: snapshot history has %d slots for day %d (want %d)",
			st.Hist.Len(), st.Day, st.Day*24)
	}
	if len(st.LastLoad) != 24 {
		return fmt.Errorf("community: snapshot demand basis has %d slots, want 24", len(st.LastLoad))
	}
	if st.LastPublished != nil && len(st.LastPublished) != 24 {
		return fmt.Errorf("community: snapshot last published price has %d slots, want 24", len(st.LastPublished))
	}
	e.day = st.Day
	e.hist = tariff.History{
		Price:     st.Hist.Price.Clone(),
		Renewable: st.Hist.Renewable.Clone(),
		Demand:    st.Hist.Demand.Clone(),
	}
	e.lastLoad = st.LastLoad.Clone()
	e.lastPublished = cloneOrNil(st.LastPublished)
	return nil
}

// Bootstrap simulates `days` clean (attack-free) days to accumulate the
// history the forecasters train on. The context is checked before every day
// in addition to the per-solve granularity inside.
func (e *Engine) Bootstrap(ctx context.Context, days int, netMetering bool) error {
	if days < 1 {
		return fmt.Errorf("community: bootstrap days %d must be positive", days)
	}
	for d := 0; d < days; d++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		env, err := e.PrepareDay(ctx, netMetering)
		if err != nil {
			return err
		}
		if _, err := e.SimulateDay(ctx, env, nil, netMetering, nil); err != nil {
			return err
		}
	}
	return nil
}
