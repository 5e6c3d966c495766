// Package scenario is the single declarative description of an experiment:
// community size and seed, tariff, PV/weather noise, attack campaign,
// detector knobs, game-solver budgets and the simulation horizon, all in one
// JSON-(de)serializable Spec. Every front end (the cmd/ commands, the
// examples) and the figure harness (package experiments, which takes a Spec
// as its only input) build their package-level configurations from a Spec
// through the builder methods, so one file describes a run end to end and a
// content hash (ID) names it.
//
// Contract (DESIGN.md "Scenario spec & cancellation contract"):
//
//   - Determinism: a Spec plus its Seed fully determines every result bit.
//     The builders lower the Spec into community.Config, core.Options and
//     fleet.Config — the only lowering there is — without introducing state
//     of their own (the game solver configuration follows from the
//     community one through community.Engine.GameConfig), and
//     Default(n, seed) reproduces the package defaults exactly — Preset
//     specs regenerate the recorded seed-42 outputs byte for byte.
//   - Hash stability: ID() hashes the canonical JSON encoding with the one
//     execution-only field (Game.Workers) zeroed, because Workers never
//     affects results. Game.JacobiBlock DOES select a (deterministic)
//     equilibrium path, so it stays in the hash. Two Specs with equal IDs
//     produce identical outputs; renaming a scenario changes its ID.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"math"

	"nmdetect/internal/attack"
	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/faultinject"
	"nmdetect/internal/fleet"
)

// Horizon fixes the simulated time structure of a run.
type Horizon struct {
	// BootstrapDays is the clean training-history length.
	BootstrapDays int `json:"bootstrap_days"`
	// BaselineDays is the number of clean days each detector kit uses to
	// learn its per-meter baseline correction.
	BaselineDays int `json:"baseline_days"`
	// MonitorDays is the long-term monitoring window (2 days = 48 h).
	MonitorDays int `json:"monitor_days"`
	// SimDays is the open-loop trace length cmd/nmsim produces (no detector
	// in the loop).
	SimDays int `json:"sim_days"`
}

// Tariff describes the utility's quadratic cost model.
type Tariff struct {
	// SellBackW is the net-metering sell-back divisor W (>= 1; the paper
	// uses 1.5).
	SellBackW float64 `json:"sell_back_w"`
}

// PV describes the renewable side: generation forecast quality and the
// meter measurement channel.
type PV struct {
	// ForecastSigma is the relative noise of the day-ahead renewable
	// forecast; 0 makes forecasts exact (the paper's assumption).
	ForecastSigma float64 `json:"forecast_sigma"`
	// MeasurementNoise is the per-meter, per-slot load measurement noise in
	// kW. 0 means exactly zero noise: a Spec states every value explicitly.
	MeasurementNoise float64 `json:"measurement_noise"`
}

// Attack selects the payload hacked meters receive. Most kinds manipulate
// the price channel; "false-reading" lies on the monitoring channel instead,
// and "adaptive" tunes a price payload against the detector threshold before
// the campaign starts. Every field added after the original four is
// omitempty, so pre-existing scenario content IDs are unchanged, and the
// struct stays comparable (scalar fields only).
type Attack struct {
	// Kind is one of "zero" (ZeroWindow), "scale" (ScaleWindow), "ramp"
	// (Ramp), "delay" (Delay), "load-shift" (LoadShift), "false-reading"
	// (FalseReading), "adaptive" (Adaptive over a ScaleFamily), "invert" or
	// "none".
	Kind string `json:"kind"`
	// From and To bound the manipulated slot window (inclusive) for the
	// windowed kinds. From > To wraps past midnight: [22,2] is the five
	// night slots.
	From int `json:"from"`
	To   int `json:"to"`
	// Factor is the price multiplier for kinds "scale", "ramp" (the value
	// reached at the window end) and "load-shift".
	Factor float64 `json:"factor,omitempty"`
	// MagnitudeKW is the phantom export for kind "false-reading". For kind
	// "adaptive" a positive magnitude switches the attacker to the
	// monitoring channel: it tunes a reading falsification of up to
	// MagnitudeKW instead of a price scale.
	MagnitudeKW float64 `json:"magnitude_kw,omitempty"`
	// Slots is the signed rotation for kind "delay" (hours, in [-23,23]).
	Slots int `json:"slots,omitempty"`
	// Margin is the evasion margin for kind "adaptive": the attacker stays
	// under Margin x FlagTau. 0 selects the default 0.9.
	Margin float64 `json:"margin,omitempty"`
}

// Campaign describes the meter-compromise process the POMDP tracks.
type Campaign struct {
	// HackProb is the per-slot probability of one additional compromise
	// batch.
	HackProb float64 `json:"hack_prob"`
	// BatchLo and BatchHi bound the batch size per successful strike.
	BatchLo int `json:"batch_lo"`
	BatchHi int `json:"batch_hi"`
	// StrikeSlots, when non-empty, switches the campaign to coordinated
	// timing: one batch is compromised exactly at each listed day slot and
	// HackProb is ignored (the coordinated grid attack of the scenario
	// taxonomy). Slots must be strictly ascending in [0,23] so the content
	// ID is canonical. omitempty: absent for every stochastic campaign, so
	// pre-existing scenario IDs are unchanged.
	StrikeSlots []int `json:"strike_slots,omitempty"`
}

// Detector holds the two-tier detection knobs.
type Detector struct {
	// FlagTau is the per-meter deviation threshold in kW.
	FlagTau float64 `json:"flag_tau"`
	// DeltaPAR is the single-event PAR threshold δ_P.
	DeltaPAR float64 `json:"delta_par"`
	// CalibFrac is the hacked fraction used for channel calibration.
	CalibFrac float64 `json:"calib_frac"`
	// Solver picks the POMDP policy solver: "pbvi", "qmdp" or "threshold".
	Solver string `json:"solver"`
}

// Game holds the scheduling-game solver budgets.
type Game struct {
	// Sweeps bounds the best-response sweeps per solve.
	Sweeps int `json:"sweeps"`
	// Workers is the engine-wide worker budget. Purely an execution knob —
	// it never affects results and is excluded from ID().
	Workers int `json:"workers"`
	// JacobiBlock is the block-Jacobi partition size (0 = sequential
	// Gauss-Seidel, the reference semantics). Part of the content hash:
	// blocks select a deterministically different equilibrium path.
	JacobiBlock int `json:"jacobi_block"`
	// ActiveTol is the solver's residual-gated active-set tolerance
	// (game.Config.ActiveTol; 0 = every customer re-solves every sweep, the
	// reference semantics). Like JacobiBlock it selects a deterministically
	// different equilibrium path, so a non-zero value is part of the content
	// hash; omitempty keeps the IDs of every pre-existing spec unchanged.
	ActiveTol float64 `json:"active_tol,omitempty"`
	// Shards is the hierarchical-solve shard count (game.Config.Shards;
	// <= 1 = the flat solver, the reference semantics, bitwise identical to
	// every pre-existing spec). Like JacobiBlock it selects a
	// deterministically different equilibrium path, so a value > 1 is part
	// of the content hash; omitempty keeps pre-existing IDs unchanged.
	Shards int `json:"shards,omitempty"`
}

// Faults describes deterministic data-plane fault injection (package
// faultinject): AMI reading dropout/corruption, stale guideline-price
// broadcasts and PV-sensor outages. All rates are per-day or per-reading
// probabilities in [0,1]. The zero value injects nothing and lowers to a
// fault-free engine.
type Faults struct {
	// DropoutRate is the per-meter, per-slot probability a reading is lost.
	DropoutRate float64 `json:"dropout_rate"`
	// CorruptRate is the per-meter, per-slot corruption probability; SpikeKW
	// bounds the additive spike magnitude.
	CorruptRate float64 `json:"corrupt_rate"`
	SpikeKW     float64 `json:"spike_kw,omitempty"`
	// StalePriceRate is the per-day probability the head-end re-broadcasts
	// yesterday's guideline price.
	StalePriceRate float64 `json:"stale_price_rate"`
	// PVOutageRate is the per-customer, per-day probability of a PV-sensor
	// outage window; PVOutageSlots is its length (0 selects the default).
	PVOutageRate  float64 `json:"pv_outage_rate"`
	PVOutageSlots int     `json:"pv_outage_slots,omitempty"`
}

// IsZero reports whether the block injects nothing.
func (f Faults) IsZero() bool {
	return f == Faults{}
}

// lower maps the block onto the injector configuration, keyed by the
// scenario seed (the plan derives its own labelled streams, so fault draws
// never collide with simulation draws).
func (f Faults) lower(seed uint64) faultinject.Config {
	return faultinject.Config{
		Seed:           seed,
		DropoutRate:    f.DropoutRate,
		CorruptRate:    f.CorruptRate,
		SpikeKW:        f.SpikeKW,
		StalePriceRate: f.StalePriceRate,
		PVOutageRate:   f.PVOutageRate,
		PVOutageSlots:  f.PVOutageSlots,
	}
}

// Fleet describes the multi-community axis: the spec's world (size N, the
// tariff, noise, campaign and detector blocks) becomes the template every
// community runs under, and the block only adds the fleet width. Community
// i simulates under the seed fleet.CommunitySeed(spec.Seed, i) — label
// derivation, so communities are mutually independent and individually
// reproducible.
type Fleet struct {
	// Communities is the fleet width F (>= 1).
	Communities int `json:"communities"`
}

// Supervise carries cross-process supervision defaults for cmd/nmfleet:
// batch size, retry budget, backoff base and worker heartbeat period.
// Purely an execution block — supervision partitions and retries work but
// never changes a result bit (workers resume from checkpoint), so like
// Game.Workers the whole block is excluded from ID(); flags override it.
type Supervise struct {
	// BatchSize is the number of communities per worker process.
	BatchSize int `json:"batch_size,omitempty"`
	// Retries is the per-batch retry budget after the first attempt.
	Retries int `json:"retries,omitempty"`
	// BackoffMS is the base retry backoff in milliseconds.
	BackoffMS int `json:"backoff_ms,omitempty"`
	// HeartbeatMS is the worker heartbeat period in milliseconds.
	HeartbeatMS int `json:"heartbeat_ms,omitempty"`
}

// Spec is the complete declarative description of one experiment scenario.
type Spec struct {
	// Name labels the scenario (preset name or a user-chosen tag).
	Name string `json:"name,omitempty"`
	// N is the community size; Seed drives every stochastic component.
	N    int    `json:"n"`
	Seed uint64 `json:"seed"`

	Horizon  Horizon  `json:"horizon"`
	Tariff   Tariff   `json:"tariff"`
	PV       PV       `json:"pv"`
	Attack   Attack   `json:"attack"`
	Campaign Campaign `json:"campaign"`
	Detector Detector `json:"detector"`
	Game     Game     `json:"game"`
	// Faults optionally injects deterministic data-plane faults. nil (the
	// block absent from the JSON) and an all-zero block both mean a
	// fault-free run; ID() canonicalises the two to the same hash, so adding
	// the feature changed no existing scenario ID.
	Faults *Faults `json:"faults,omitempty"`
	// Fleet optionally widens the run to a multi-community fleet. nil, an
	// all-zero block and {communities: 1} all select the direct
	// single-community path; ID() canonicalises all three to the same hash
	// (pre-existing scenario IDs are unchanged), while a width >= 2 is
	// content — a fleet of derived-seed communities is a different
	// experiment — and moves the ID.
	Fleet *Fleet `json:"fleet,omitempty"`
	// Supervise optionally carries cross-process supervision defaults for
	// cmd/nmfleet. Execution-only: the block never affects results, so ID()
	// drops it entirely (every pre-existing scenario ID is unchanged) and
	// command-line flags override it.
	Supervise *Supervise `json:"supervise,omitempty"`
}

// Default returns the paper's scenario for a community of n meters: the
// values every recorded experiment was produced with. It mirrors
// community.DefaultConfig and core.DefaultOptions — the builder methods of a
// Default spec reproduce those configurations field for field.
func Default(n int, seed uint64) Spec {
	return Spec{
		N:    n,
		Seed: seed,
		Horizon: Horizon{
			BootstrapDays: 6,
			BaselineDays:  2,
			MonitorDays:   2,
			SimDays:       7,
		},
		Tariff: Tariff{SellBackW: 1.5},
		PV: PV{
			ForecastSigma:    0,
			MeasurementNoise: 0.05,
		},
		Attack:   Attack{Kind: "zero", From: 16, To: 17},
		Campaign: Campaign{HackProb: 0.10, BatchLo: max(1, n/20), BatchHi: max(2, n/8)},
		Detector: Detector{FlagTau: 0.5, DeltaPAR: 0.05, CalibFrac: 0.4, Solver: "pbvi"},
		Game:     Game{Sweeps: 3, Workers: 0, JacobiBlock: 0},
	}
}

// nonFinite reports whether any of the values is NaN or ±Inf. JSON cannot
// encode non-finite numbers, but Specs are also built programmatically, and
// a NaN threshold passes every ordered range check below — so finiteness is
// enforced explicitly.
func nonFinite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Validate checks every field range. A valid Spec lowers into valid
// community, core and fleet configurations.
func (s Spec) Validate() error {
	if s.N < 3 {
		return fmt.Errorf("scenario: community size %d too small (need >= 3)", s.N)
	}
	if nonFinite(s.Tariff.SellBackW, s.PV.ForecastSigma, s.PV.MeasurementNoise,
		s.Attack.Factor, s.Attack.MagnitudeKW, s.Attack.Margin,
		s.Campaign.HackProb, s.Detector.FlagTau,
		s.Detector.DeltaPAR, s.Detector.CalibFrac) {
		return fmt.Errorf("scenario: non-finite parameter")
	}
	if s.Horizon.BootstrapDays < 3 {
		return fmt.Errorf("scenario: need at least 3 bootstrap days, got %d", s.Horizon.BootstrapDays)
	}
	if s.Horizon.BaselineDays < 1 {
		return fmt.Errorf("scenario: baseline days %d must be positive", s.Horizon.BaselineDays)
	}
	if s.Horizon.MonitorDays < 1 {
		return fmt.Errorf("scenario: monitor days %d must be positive", s.Horizon.MonitorDays)
	}
	if s.Horizon.SimDays < 1 {
		return fmt.Errorf("scenario: sim days %d must be positive", s.Horizon.SimDays)
	}
	if s.Tariff.SellBackW < 1 {
		return fmt.Errorf("scenario: sell-back divisor W=%v must be >= 1", s.Tariff.SellBackW)
	}
	if s.PV.ForecastSigma < 0 || s.PV.MeasurementNoise < 0 {
		return fmt.Errorf("scenario: negative noise parameter")
	}
	switch s.Attack.Kind {
	case "zero", "scale", "ramp", "load-shift", "false-reading", "adaptive":
		// From > To is a legal wrapping window (22..2 covers the night
		// slots); both bounds must still be day slots.
		if s.Attack.From < 0 || s.Attack.From > 23 || s.Attack.To < 0 || s.Attack.To > 23 {
			return fmt.Errorf("scenario: attack window [%d,%d] out of [0,23]", s.Attack.From, s.Attack.To)
		}
		switch s.Attack.Kind {
		case "scale", "ramp", "load-shift":
			if s.Attack.Factor < 0 {
				return fmt.Errorf("scenario: %s factor %v must be non-negative", s.Attack.Kind, s.Attack.Factor)
			}
		case "false-reading":
			if s.Attack.MagnitudeKW <= 0 {
				return fmt.Errorf("scenario: false-reading magnitude %v must be positive", s.Attack.MagnitudeKW)
			}
		case "adaptive":
			if s.Attack.Margin < 0 || s.Attack.Margin >= 1 {
				return fmt.Errorf("scenario: adaptive margin %v out of [0,1) (0 selects the default)", s.Attack.Margin)
			}
			if s.Attack.MagnitudeKW < 0 {
				return fmt.Errorf("scenario: adaptive magnitude %v must be non-negative", s.Attack.MagnitudeKW)
			}
		}
	case "delay":
		if s.Attack.Slots == 0 || s.Attack.Slots < -23 || s.Attack.Slots > 23 {
			return fmt.Errorf("scenario: delay slots %d out of [-23,23] (and non-zero)", s.Attack.Slots)
		}
	case "invert", "none":
	default:
		return fmt.Errorf("scenario: unknown attack kind %q (want zero|scale|ramp|delay|load-shift|false-reading|adaptive|invert|none)", s.Attack.Kind)
	}
	if s.Campaign.HackProb <= 0 || s.Campaign.HackProb > 1 {
		return fmt.Errorf("scenario: hack probability %v out of (0,1]", s.Campaign.HackProb)
	}
	if s.Campaign.BatchLo < 1 || s.Campaign.BatchHi < s.Campaign.BatchLo {
		return fmt.Errorf("scenario: campaign batch range [%d,%d] invalid", s.Campaign.BatchLo, s.Campaign.BatchHi)
	}
	for i, slot := range s.Campaign.StrikeSlots {
		if slot < 0 || slot > 23 {
			return fmt.Errorf("scenario: strike slot %d out of [0,23]", slot)
		}
		if i > 0 && slot <= s.Campaign.StrikeSlots[i-1] {
			return fmt.Errorf("scenario: strike slots must be strictly ascending, got %v", s.Campaign.StrikeSlots)
		}
	}
	if s.Detector.FlagTau <= 0 || s.Detector.DeltaPAR <= 0 {
		return fmt.Errorf("scenario: detector thresholds must be positive")
	}
	if s.Detector.CalibFrac <= 0 || s.Detector.CalibFrac >= 1 {
		return fmt.Errorf("scenario: calibration fraction %v out of (0,1)", s.Detector.CalibFrac)
	}
	switch core.PolicySolver(s.Detector.Solver) {
	case core.SolverPBVI, core.SolverQMDP, core.SolverThreshold:
	default:
		return fmt.Errorf("scenario: unknown solver %q (want pbvi|qmdp|threshold)", s.Detector.Solver)
	}
	if s.Game.Sweeps < 1 {
		return fmt.Errorf("scenario: game sweeps %d must be positive", s.Game.Sweeps)
	}
	if s.Game.Workers < 0 || s.Game.JacobiBlock < 0 || s.Game.Shards < 0 {
		return fmt.Errorf("scenario: negative parallelism knob")
	}
	if nonFinite(s.Game.ActiveTol) || s.Game.ActiveTol < 0 {
		return fmt.Errorf("scenario: active-set tolerance %v must be finite and non-negative", s.Game.ActiveTol)
	}
	if s.Faults != nil {
		if err := s.Faults.lower(s.Seed).Validate(); err != nil {
			return err
		}
	}
	if s.Fleet != nil && s.Fleet.Communities < 0 {
		return fmt.Errorf("scenario: fleet communities %d must be non-negative", s.Fleet.Communities)
	}
	if s.Supervise != nil {
		if s.Supervise.BatchSize < 0 || s.Supervise.Retries < 0 ||
			s.Supervise.BackoffMS < 0 || s.Supervise.HeartbeatMS < 0 {
			return fmt.Errorf("scenario: negative supervise knob %+v", *s.Supervise)
		}
	}
	// The community game is a game between customers: a fleet of 1-meter
	// "communities" is rejected upstream by the N >= 3 floor above, and the
	// fleet layer re-checks Size >= 2 with its own routed error.
	return nil
}

// ID returns the stable content hash naming this scenario:
// "sc-" + the first 16 hex digits of the SHA-256 of the canonical JSON
// encoding with Game.Workers zeroed. encoding/json emits struct fields in
// declaration order, so the encoding — and therefore the hash — is canonical
// by construction. Everything except Workers is content: two Specs with the
// same ID produce bitwise-identical results.
func (s Spec) ID() string {
	s.Game.Workers = 0
	if s.Faults != nil && s.Faults.IsZero() {
		// An all-zero faults block injects nothing; canonicalise it away so
		// it hashes identically to a spec without the block.
		s.Faults = nil
	}
	if s.Fleet != nil && s.Fleet.Communities <= 1 {
		// A fleet of width <= 1 runs the direct single-community path;
		// canonicalise it away so it hashes identically to a spec without
		// the block (pre-existing IDs stay stable).
		s.Fleet = nil
	}
	// Supervision is execution-only in its entirety — how a fleet is
	// partitioned across processes and retried never changes a result bit —
	// so the whole block is dropped from the hash, like Game.Workers.
	s.Supervise = nil
	data, err := json.Marshal(s)
	if err != nil {
		// A Spec contains only plain data fields; Marshal cannot fail.
		panic(err) // lint:allow-panic — unreachable by construction
	}
	sum := sha256.Sum256(data)
	return "sc-" + hex.EncodeToString(sum[:])[:16]
}

// Build constructs the payload the block describes. flagTau is the detector
// flagger threshold a kind-"adaptive" attacker tunes against; the other
// kinds ignore it.
func (a Attack) Build(flagTau float64) (attack.Attack, error) {
	switch a.Kind {
	case "zero":
		return attack.ZeroWindow{From: a.From, To: a.To}, nil
	case "scale":
		return attack.ScaleWindow{From: a.From, To: a.To, Factor: a.Factor}, nil
	case "ramp":
		return attack.Ramp{From: a.From, To: a.To, Factor: a.Factor}, nil
	case "delay":
		return attack.Delay{Slots: a.Slots}, nil
	case "load-shift":
		return attack.LoadShift{From: a.From, To: a.To, Factor: a.Factor}, nil
	case "false-reading":
		return attack.FalseReading{From: a.From, To: a.To, MagnitudeKW: a.MagnitudeKW}, nil
	case "adaptive":
		var fam attack.Family = attack.ScaleFamily{From: a.From, To: a.To}
		if a.MagnitudeKW > 0 {
			// A magnitude switches the attacker to the monitoring channel:
			// it tunes a phantom-export reading falsification of up to
			// MagnitudeKW instead of a price scale.
			fam = attack.ReadingFamily{From: a.From, To: a.To, MaxKW: a.MagnitudeKW}
		}
		return &attack.Adaptive{
			Family: fam,
			Tau:    flagTau,
			Margin: a.Margin,
		}, nil
	case "invert":
		return attack.Invert{}, nil
	case "none":
		return attack.None{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown attack kind %q", a.Kind)
	}
}

// BuildAttack constructs the payload the spec describes. Kind "adaptive"
// returns a fresh untuned *attack.Adaptive targeting the spec's flagger
// threshold; core.NewSystem tunes it against the detector during the offline
// phase.
func (s Spec) BuildAttack() (attack.Attack, error) {
	return s.Attack.Build(s.Detector.FlagTau)
}

// CommunityConfig lowers the spec into the simulation-engine configuration.
func (s Spec) CommunityConfig() community.Config {
	c := community.DefaultConfig(s.N, s.Seed)
	c.Tariff.W = s.Tariff.SellBackW
	c.SolarForecastSigma = s.PV.ForecastSigma
	c.MeasurementNoise = s.PV.MeasurementNoise
	c.GameSweeps = s.Game.Sweeps
	c.Workers = s.Game.Workers
	c.GameJacobiBlock = s.Game.JacobiBlock
	c.GameActiveTol = s.Game.ActiveTol
	c.Shards = s.Game.Shards
	if s.Faults != nil {
		c.Faults = s.Faults.lower(s.Seed)
	}
	return c
}

// NewEngine validates the spec and constructs the community simulation
// engine it describes.
func (s Spec) NewEngine() (*community.Engine, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return community.NewEngine(s.CommunityConfig())
}

// CoreOptions lowers the spec into the full-pipeline options of package core.
// The attack payload is built with BuildAttack; an invalid kind surfaces
// there (and in Validate), so CoreOptions itself stays infallible for valid
// specs — callers should Validate first.
func (s Spec) CoreOptions() (core.Options, error) {
	atk, err := s.BuildAttack()
	if err != nil {
		return core.Options{}, err
	}
	opts := core.DefaultOptions(s.N, s.Seed)
	opts.Community = s.CommunityConfig()
	opts.BootstrapDays = s.Horizon.BootstrapDays
	opts.BaselineDays = s.Horizon.BaselineDays
	opts.FlagTau = s.Detector.FlagTau
	opts.DeltaPAR = s.Detector.DeltaPAR
	opts.CalibFrac = s.Detector.CalibFrac
	opts.HackProb = s.Campaign.HackProb
	opts.BatchLo = s.Campaign.BatchLo
	opts.BatchHi = s.Campaign.BatchHi
	opts.Attack = atk
	if len(s.Campaign.StrikeSlots) > 0 {
		opts.StrikeSlots = append([]int(nil), s.Campaign.StrikeSlots...)
	}
	opts.Solver = core.PolicySolver(s.Detector.Solver)
	return opts, nil
}

// FleetCommunities is the effective fleet width: 1 without a fleet block
// (or with a width <= 1 block — both run the direct single-community path),
// the block's width otherwise.
func (s Spec) FleetCommunities() int {
	if s.Fleet == nil || s.Fleet.Communities <= 1 {
		return 1
	}
	return s.Fleet.Communities
}

// CommunitySpec is the single-community spec fleet member i runs under: the
// same world with the derived seed installed, the fleet block cleared and
// the name suffixed with the fleet position. Lifting one community out of a
// fleet this way and running it through the direct path reproduces its
// fleet results bit for bit.
func (s Spec) CommunitySpec(i int) Spec {
	member := s
	member.Seed = fleet.CommunitySeed(s.Seed, i)
	member.Fleet = nil
	member.Supervise = nil
	if member.Name != "" {
		member.Name = fmt.Sprintf("%s/c%03d", member.Name, i)
	}
	return member
}

// FleetConfig lowers the spec into the fleet orchestrator configuration:
// the spec's world becomes the per-community template, N the community
// size and the fleet block the width. Runtime knobs — detector choice,
// enforcement, fleet workers, checkpoint directory and cadence — are not
// scenario content and stay with the caller; the defaults select the
// aware detector with enforcement on.
func (s Spec) FleetConfig() (fleet.Config, error) {
	opts, err := s.CoreOptions()
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{
		Communities: s.FleetCommunities(),
		Size:        s.N,
		BaseSeed:    s.Seed,
		Base:        opts,
		Detector:    fleet.DetectorAware,
		Days:        s.Horizon.MonitorDays,
		Enforce:     true,
	}, nil
}

// Load decodes a Spec from JSON. Unknown fields are rejected so typos in a
// scenario file fail loudly instead of silently selecting defaults.
func Load(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadFile reads and validates a scenario file.
func LoadFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Save writes the spec as indented JSON.
func (s Spec) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("scenario: encode: %w", err)
	}
	return nil
}
