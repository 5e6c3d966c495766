package forecast

import (
	"fmt"

	"nmdetect/internal/svr"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

// DemandForecaster predicts the next day's community energy demand from
// demand history — the utility-side model that feeds guideline-price
// formation ("the utility predicts the future electricity price" from demand
// expectations). The engine prices from yesterday's realized load; no run
// uses this model as its demand basis.
type DemandForecaster struct {
	opts  Options
	model *svr.Model
}

// TrainDemandForecaster fits the demand model on whole-day history.
func TrainDemandForecaster(hist tariff.History, opts Options) (*DemandForecaster, error) {
	if err := hist.Validate(); err != nil {
		return nil, err
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
			rows = append(rows, demandFeatures(opts.LagDays, hist, dayStart, h))
			targets = append(targets, hist.Demand[dayStart+h])
		}
	}
	model, err := svr.TrainLSSVM(rows, targets, opts.LSSVM)
	if err != nil {
		return nil, fmt.Errorf("forecast: %w", err)
	}
	return &DemandForecaster{opts: opts, model: model}, nil
}

// demandFeatures mirrors the price forecaster's lag structure on the demand
// series — same-slot and neighboring-slot demand of each lag day — plus the
// slot's historical mean over every prior day. The mean feature lets the
// regression express the optimal predictor under day-scale noise (the
// per-slot average) instead of being limited to averaging the lag window.
func demandFeatures(lagDays int, hist tariff.History, dayStart, h int) []float64 {
	features := make([]float64, 0, 3*lagDays+1)
	sum, days := 0.0, 0
	for base := h; base < dayStart; base += 24 {
		sum += hist.Demand[base]
		days++
	}
	mean := 0.0
	if days > 0 {
		mean = sum / float64(days)
	}
	features = append(features, mean)
	for lag := 1; lag <= lagDays; lag++ {
		base := dayStart - lag*24
		prev := (h + 23) % 24
		next := (h + 1) % 24
		features = append(features,
			hist.Demand[base+h],
			hist.Demand[base+prev],
			hist.Demand[base+next],
		)
	}
	return features
}

// PredictDay forecasts the 24 demand values of the day following the
// history.
func (d *DemandForecaster) PredictDay(hist tariff.History) (timeseries.Series, error) {
	if err := hist.Validate(); err != nil {
		return nil, err
	}
	if hist.Len()%24 != 0 {
		return nil, fmt.Errorf("forecast: history length %d is not whole days", hist.Len())
	}
	if hist.Len() < d.opts.LagDays*24 {
		return nil, fmt.Errorf("forecast: need %d days of history, have %d slots", d.opts.LagDays, hist.Len())
	}
	dayStart := hist.Len()
	out := make(timeseries.Series, 24)
	for h := 0; h < 24; h++ {
		v := d.model.Predict(demandFeatures(d.opts.LagDays, hist, dayStart, h))
		if v < 0 {
			v = 0 // demand cannot be negative
		}
		out[h] = v
	}
	return out, nil
}
