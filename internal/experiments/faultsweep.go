package experiments

import (
	"context"
	"fmt"
	"sort"

	"nmdetect/internal/core"
	"nmdetect/internal/faultinject"
	"nmdetect/internal/metrics"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
)

// FaultSweepPoint is one point of the fault-rate sweep: the NM-aware
// detector monitored the same seeded world with the base fault plan scaled
// by Scale.
type FaultSweepPoint struct {
	// Scale multiplies every rate of the base fault configuration.
	Scale float64
	// Accuracy is the detector's observation accuracy over the window.
	Accuracy float64
	// PAR is the realized grid peak-to-average ratio under enforcement.
	PAR float64
	// ImputedReadings counts meter-slot readings reconstructed from history.
	ImputedReadings int
	// DegradedDays counts monitored days flagged as degraded.
	DegradedDays int
	// MeanConfidence averages the per-day observation confidence.
	MeanConfidence float64
}

// FaultSweepResult reports detection quality versus fault intensity.
type FaultSweepResult struct {
	// Base is the fault configuration at Scale 1.
	Base faultinject.Config
	// Points are the sweep results, sorted by scale.
	Points []FaultSweepPoint
}

// FaultSweep measures how gracefully the NM-aware detector degrades as the
// data plane gets noisier: for each scale it monitors the usual seeded
// campaign window with the base fault plan's rates multiplied by that scale,
// and reports accuracy, realized PAR and the degradation counters. Scale 0
// is the fault-free world — by construction it reproduces the Table-1
// NM-aware row bit for bit, anchoring the sweep to the recorded baseline.
func FaultSweep(ctx context.Context, spec scenario.Spec, base faultinject.Config, scales []float64) (*FaultSweepResult, error) {
	defer obs.From(ctx).Span("experiments.faultsweep")()
	opts, err := lower(spec)
	if err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if len(scales) == 0 {
		return nil, fmt.Errorf("experiments: no fault scales")
	}
	sorted := append([]float64(nil), scales...)
	sort.Float64s(sorted)
	res := &FaultSweepResult{Base: base}
	for _, scale := range sorted {
		// A scaled plan is not a spec value (a spec's faults block is keyed
		// by the spec seed), so it replaces the lowered plan directly.
		o := opts
		o.Community.Faults = base.Scale(scale)
		if err := o.Community.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: scale %v: %w", scale, err)
		}
		sys, err := core.NewSystem(ctx, o)
		if err != nil {
			return nil, err
		}
		camp, err := sys.NewCampaign()
		if err != nil {
			return nil, err
		}
		results, err := sys.MonitorDays(ctx, sys.Aware, camp, spec.Horizon.MonitorDays, true)
		if err != nil {
			return nil, err
		}
		par, err := metrics.Finite("realized PAR", core.RealizedPAR(results))
		if err != nil {
			return nil, fmt.Errorf("experiments: scale %v: %w", scale, err)
		}
		pt := FaultSweepPoint{
			Scale:    scale,
			Accuracy: core.ObservationAccuracy(results),
			PAR:      par,
		}
		for _, r := range results {
			pt.ImputedReadings += r.ImputedReadings
			if r.Degraded {
				pt.DegradedDays++
			}
			pt.MeanConfidence += r.Confidence
		}
		pt.MeanConfidence /= float64(len(results))
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
