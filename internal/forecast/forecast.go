// Package forecast implements the guideline-price prediction of Section 4.1.
//
// Two predictors are provided, matching the paper's comparison:
//
//   - ModePriceOnly — the state-of-the-art baseline of [8]: SVR over the
//     historical price series alone ("the electricity price tends to be
//     similar in short term"). Each slot of the next day is predicted from
//     the same and neighboring slots of the preceding days.
//   - ModeNetMeteringAware — this paper's predictor: the SVR consumes the
//     time series G(p, V, D), i.e. price lags plus the renewable-generation
//     and demand history and the renewable forecast for the target day.
//     Because the utility prices *net* demand (package tariff), renewable
//     swings move the received price; a predictor that sees the renewable
//     forecast tracks those swings, a price-only predictor can only report
//     the recent average — that is the entire detection gap the paper
//     quantifies (95.14% vs 65.95%).
//
// Both predictors are per-slot LS-SVM regressions trained on a sliding
// window of full days.
package forecast

import (
	"errors"
	"fmt"

	"nmdetect/internal/svr"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

// Mode selects the feature set.
type Mode int

// Forecaster modes.
const (
	// ModePriceOnly is the NM-blind baseline of [8].
	ModePriceOnly Mode = iota
	// ModeNetMeteringAware is the paper's G(p, V, D) predictor.
	ModeNetMeteringAware
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePriceOnly:
		return "price-only"
	case ModeNetMeteringAware:
		return "net-metering-aware"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options tunes the forecaster.
type Options struct {
	// LagDays is the number of preceding days whose same-slot values feed
	// the feature vector.
	LagDays int
	// LSSVM configures the underlying trainer.
	LSSVM svr.LSSVMOptions
}

// DefaultOptions returns the experiment configuration: two lag days and a
// ridge-regularized linear LS-SVM.
func DefaultOptions() Options {
	return Options{
		LagDays: 2,
		// A linear kernel: the utility's price formation is affine in net
		// demand, so ridge regression over the lag features is the matched
		// model class and beats RBF at the history sizes involved (verified
		// by the kernel ablation bench). RBF remains available via Options.
		LSSVM: svr.LSSVMOptions{Gamma: 100, Kernel: svr.LinearKernel{}},
	}
}

// Forecaster predicts the next day's 24 guideline prices.
type Forecaster struct {
	mode  Mode
	opts  Options
	model *svr.Model
}

// Mode returns the forecaster's feature mode.
func (f *Forecaster) Mode() Mode { return f.mode }

// featureDim returns the width of the feature vector for a mode.
func featureDim(mode Mode, lagDays int) int {
	// Per lag day: same-slot price, previous-slot price, next-slot price.
	d := 3 * lagDays
	if mode == ModeNetMeteringAware {
		// Renewable forecast at the target slot, plus per lag day the
		// same-slot renewable generation and demand.
		d += 1 + 2*lagDays
	}
	return d
}

// buildFeatures assembles the feature vector for predicting slot h of the day
// starting at absolute slot dayStart, using only history strictly before
// dayStart. renewableTarget is the renewable forecast for the target slot
// (used in NM-aware mode only; pass 0 otherwise).
func buildFeatures(mode Mode, lagDays int, hist tariff.History, dayStart, h int, renewableTarget float64) []float64 {
	features := make([]float64, 0, featureDim(mode, lagDays))
	for lag := 1; lag <= lagDays; lag++ {
		base := dayStart - lag*24
		prev := (h + 23) % 24
		next := (h + 1) % 24
		features = append(features,
			hist.Price[base+h],
			hist.Price[base+prev],
			hist.Price[base+next],
		)
	}
	if mode == ModeNetMeteringAware {
		features = append(features, renewableTarget)
		for lag := 1; lag <= lagDays; lag++ {
			base := dayStart - lag*24
			features = append(features, hist.Renewable[base+h], hist.Demand[base+h])
		}
	}
	return features
}

// Train fits a forecaster on the given history, which must contain at least
// LagDays+1 complete days (multiples of 24 slots).
func Train(hist tariff.History, mode Mode, opts Options) (*Forecaster, error) {
	if err := hist.Validate(); err != nil {
		return nil, err
	}
	if mode != ModePriceOnly && mode != ModeNetMeteringAware {
		return nil, fmt.Errorf("forecast: unknown mode %d", int(mode))
	}
	if opts.LagDays < 1 {
		return nil, fmt.Errorf("forecast: lag days %d must be positive", opts.LagDays)
	}
	if hist.Len()%24 != 0 {
		return nil, fmt.Errorf("forecast: history length %d is not whole days", hist.Len())
	}
	days := hist.Len() / 24
	if days < opts.LagDays+1 {
		return nil, fmt.Errorf("forecast: need at least %d days of history, have %d", opts.LagDays+1, days)
	}

	var rows [][]float64
	var targets []float64
	for day := opts.LagDays; day < days; day++ {
		dayStart := day * 24
		for h := 0; h < 24; h++ {
			// During training the realized renewable generation stands in
			// for the (historical) forecast.
			rows = append(rows, buildFeatures(mode, opts.LagDays, hist, dayStart, h, hist.Renewable[dayStart+h]))
			targets = append(targets, hist.Price[dayStart+h])
		}
	}

	model, err := svr.TrainLSSVM(rows, targets, opts.LSSVM)
	if err != nil {
		return nil, fmt.Errorf("forecast: %w", err)
	}
	return &Forecaster{mode: mode, opts: opts, model: model}, nil
}

// PredictDay forecasts the 24 guideline prices of the day immediately
// following the history. renewableForecast is the community renewable
// forecast Θ̂ for the target day (24 values); it is required in NM-aware mode
// and ignored otherwise (nil is then acceptable).
func (f *Forecaster) PredictDay(hist tariff.History, renewableForecast timeseries.Series) (timeseries.Series, error) {
	if err := hist.Validate(); err != nil {
		return nil, err
	}
	if hist.Len()%24 != 0 {
		return nil, fmt.Errorf("forecast: history length %d is not whole days", hist.Len())
	}
	if hist.Len() < f.opts.LagDays*24 {
		return nil, fmt.Errorf("forecast: need %d days of history, have %d slots", f.opts.LagDays, hist.Len())
	}
	if f.mode == ModeNetMeteringAware && len(renewableForecast) != 24 {
		return nil, errors.New("forecast: net-metering-aware prediction requires a 24-slot renewable forecast")
	}

	dayStart := hist.Len()
	out := make(timeseries.Series, 24)
	for h := 0; h < 24; h++ {
		rt := 0.0
		if f.mode == ModeNetMeteringAware {
			rt = renewableForecast[h]
		}
		row := buildFeatures(f.mode, f.opts.LagDays, hist, dayStart, h, rt)
		out[h] = f.model.Predict(row)
	}
	return out, nil
}
