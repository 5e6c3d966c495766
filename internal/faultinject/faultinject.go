// Package faultinject produces deterministic, seeded fault plans for the
// community data plane: the dropped, corrupted and stale inputs a real AMI
// deployment feeds a detector (Badr et al. study exactly this regime for
// net-metering false-reading attacks).
//
// A Plan is a pure function of (seed, day): the faults of day d are derived
// from a stream labelled with d alone, never from engine state, so
//
//   - the clean and attacked solve paths of one simulated day see identical
//     faults,
//   - calibration days that snapshot/restore the engine do not shift the
//     plan, and
//   - a checkpoint/resume replay regenerates the same faults bit for bit.
//
// Four fault channels are modelled, all on the measurement/broadcast plane —
// faults corrupt what the utility and detectors see, never the physical
// community (except the stale guideline broadcast, which hacked and intact
// meters alike schedule against, exactly like a real stuck head-end):
//
//   - meter-reading dropout: a reading is lost (NaN sentinel),
//   - reading corruption: an additive spike, or a NaN-like sentinel,
//   - stale guideline-price broadcast: the whole community receives the
//     previous day's published price again,
//   - PV-sensor outage: a customer's renewable forecast feed is zero for a
//     contiguous slot window.
package faultinject

import (
	"fmt"
	"math"

	"nmdetect/internal/rng"
)

// Config parameterizes a fault plan. The zero value injects nothing.
type Config struct {
	// Seed drives every fault draw (independent of the world seed so the
	// same weather can be replayed under different fault realizations).
	Seed uint64
	// DropoutRate is the per-meter, per-slot probability that a reading is
	// lost (recorded as NaN).
	DropoutRate float64
	// CorruptRate is the per-meter, per-slot probability that a reading is
	// falsified. A quarter of corruptions are NaN-like sentinels (handled as
	// missing); the rest are additive spikes of magnitude up to SpikeKW.
	CorruptRate float64
	// SpikeKW bounds the absolute magnitude of corruption spikes (kW).
	SpikeKW float64
	// StalePriceRate is the per-day probability that the guideline-price
	// broadcast is stuck and the community receives yesterday's price.
	StalePriceRate float64
	// PVOutageRate is the per-day, per-customer probability of a PV-sensor
	// outage window.
	PVOutageRate float64
	// PVOutageSlots is the length of each outage window (defaults to 4 when
	// an outage fires with a non-positive length).
	PVOutageSlots int
}

// IsZero reports whether the configuration injects no faults at all.
func (c Config) IsZero() bool {
	return c.DropoutRate == 0 && c.CorruptRate == 0 && c.StalePriceRate == 0 && c.PVOutageRate == 0
}

// Validate checks rates and magnitudes.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"dropout rate", c.DropoutRate},
		{"corrupt rate", c.CorruptRate},
		{"stale price rate", c.StalePriceRate},
		{"pv outage rate", c.PVOutageRate},
	}
	for _, r := range rates {
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return fmt.Errorf("faultinject: %s %v out of [0,1]", r.name, r.v)
		}
	}
	if math.IsNaN(c.SpikeKW) || math.IsInf(c.SpikeKW, 0) || c.SpikeKW < 0 {
		return fmt.Errorf("faultinject: spike magnitude %v must be finite and non-negative", c.SpikeKW)
	}
	if c.PVOutageSlots < 0 || c.PVOutageSlots > 24 {
		return fmt.Errorf("faultinject: pv outage length %d out of [0,24]", c.PVOutageSlots)
	}
	return nil
}

// Scale returns a copy of the configuration with every rate multiplied by f
// (clamped to [0,1]); magnitudes and the seed are unchanged. FaultSweep uses
// this to trace detection quality against a single fault-intensity axis.
func (c Config) Scale(f float64) Config {
	s := c
	s.DropoutRate = rng.Clamp(c.DropoutRate*f, 0, 1)
	s.CorruptRate = rng.Clamp(c.CorruptRate*f, 0, 1)
	s.StalePriceRate = rng.Clamp(c.StalePriceRate*f, 0, 1)
	s.PVOutageRate = rng.Clamp(c.PVOutageRate*f, 0, 1)
	return s
}

// DefaultConfig is the reference fault mix used by FaultSweep: all four
// channels active at the given base rate intensity.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:           seed,
		DropoutRate:    0.02,
		CorruptRate:    0.01,
		SpikeKW:        2.0,
		StalePriceRate: 0.05,
		PVOutageRate:   0.05,
		PVOutageSlots:  4,
	}
}

// Window is an inclusive slot interval; a negative From means "no window".
type Window struct {
	From, To int
}

// Active reports whether slot h falls inside the window.
func (w Window) Active(h int) bool { return w.From >= 0 && h >= w.From && h <= w.To }

// DayFaults is the realized fault plan of one simulated day for a community
// of n meters. Fault values are represented directly: Readings[n][h] is NaN
// for a dropped (or sentinel-corrupted) reading, a non-zero finite additive
// spike for a falsified one, and 0 for a clean one.
type DayFaults struct {
	// Day is the absolute engine day index the plan was drawn for.
	Day int
	// Readings[n][h]: 0 = clean, NaN = missing, otherwise additive spike (kW).
	Readings [][]float64
	// StalePrice marks the whole day's guideline broadcast as stuck.
	StalePrice bool
	// PVOutage[n] is customer n's sensor outage window ({-1,-1} = none).
	PVOutage []Window
}

// Plan generates per-day fault realizations from a validated configuration.
// It is stateless: Day(d, n) is a pure function of (Config, d, n), so plans
// may be regenerated freely (checkpoint resume, clean/attacked replay).
type Plan struct {
	cfg Config
}

// NewPlan validates the configuration and returns its plan.
func NewPlan(cfg Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Plan{cfg: cfg}, nil
}

// Day draws the fault realization for absolute day index `day` over n meters.
// Derivation order is fixed, so the realization is deterministic.
func (p *Plan) Day(day, n int) *DayFaults {
	src := rng.New(p.cfg.Seed).Derive(fmt.Sprintf("fault-day-%d", day))
	df := &DayFaults{
		Day:      day,
		Readings: make([][]float64, n),
		PVOutage: make([]Window, n),
	}
	df.StalePrice = p.cfg.StalePriceRate > 0 && src.Derive("stale").Bernoulli(p.cfg.StalePriceRate)

	outSrc := src.Derive("pv-outage")
	outLen := p.cfg.PVOutageSlots
	if outLen <= 0 {
		outLen = 4
	}
	readSrc := src.Derive("readings")
	for i := 0; i < n; i++ {
		df.PVOutage[i] = Window{From: -1, To: -1}
		if p.cfg.PVOutageRate > 0 && outSrc.Bernoulli(p.cfg.PVOutageRate) {
			from := outSrc.Intn(24)
			to := from + outLen - 1
			if to > 23 {
				to = 23
			}
			df.PVOutage[i] = Window{From: from, To: to}
		}
		row := make([]float64, 24)
		df.Readings[i] = row
		if p.cfg.DropoutRate == 0 && p.cfg.CorruptRate == 0 {
			continue
		}
		for h := 0; h < 24; h++ {
			if p.cfg.DropoutRate > 0 && readSrc.Bernoulli(p.cfg.DropoutRate) {
				row[h] = math.NaN()
				continue
			}
			if p.cfg.CorruptRate > 0 && readSrc.Bernoulli(p.cfg.CorruptRate) {
				if readSrc.Bernoulli(0.25) {
					// NaN-like sentinel: a falsified reading the head-end
					// rejects, indistinguishable from dropout downstream.
					row[h] = math.NaN()
					continue
				}
				spike := readSrc.Range(0.25, 1) * p.cfg.SpikeKW
				if readSrc.Bernoulli(0.5) {
					spike = -spike
				}
				row[h] = spike
			}
		}
	}
	return df
}
