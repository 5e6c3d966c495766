package experiments

import (
	"context"
	"fmt"

	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/metrics"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
	"nmdetect/internal/timeseries"
)

// Fig6Result captures the 48-hour observation-accuracy experiment.
type Fig6Result struct {
	// AwareAccuracy and BlindAccuracy are the overall observation accuracies
	// (paper: 95.14% vs 65.95%).
	AwareAccuracy, BlindAccuracy float64
	// AwareBySlot and BlindBySlot are running (cumulative) accuracies per
	// monitored slot — the curves of Figure 6.
	AwareBySlot, BlindBySlot []float64
	// Slots is the number of monitored slots (MonitorDays × 24).
	Slots int
}

// Fig6 reproduces Figure 6: both detector variants monitor the same seeded
// world with their inspections enforced (as deployed), and their per-slot
// state estimates are scored against the true hacked-count buckets.
func Fig6(ctx context.Context, spec scenario.Spec) (*Fig6Result, error) {
	defer obs.From(ctx).Span("experiments.fig6")()
	opts, err := lower(spec)
	if err != nil {
		return nil, err
	}
	days := spec.Horizon.MonitorDays
	run := func(aware bool) ([]*community.MonitorDayResult, error) {
		sys, err := core.NewSystem(ctx, opts)
		if err != nil {
			return nil, err
		}
		kit := sys.Blind
		if aware {
			kit = sys.Aware
		}
		camp, err := sys.NewCampaign()
		if err != nil {
			return nil, err
		}
		return sys.MonitorDays(ctx, kit, camp, days, true)
	}
	awareRes, err := run(true)
	if err != nil {
		return nil, err
	}
	blindRes, err := run(false)
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{
		AwareAccuracy: core.ObservationAccuracy(awareRes),
		BlindAccuracy: core.ObservationAccuracy(blindRes),
		AwareBySlot:   runningAccuracy(awareRes),
		BlindBySlot:   runningAccuracy(blindRes),
		Slots:         days * 24,
	}
	return out, nil
}

// runningAccuracy returns the cumulative accuracy of the detector's state
// estimates after each slot.
func runningAccuracy(results []*community.MonitorDayResult) []float64 {
	var out []float64
	hits, total := 0, 0
	for _, r := range results {
		for h := range r.BeliefBucket {
			total++
			if r.BeliefBucket[h] == r.TrueBucket[h] {
				hits++
			}
			out = append(out, float64(hits)/float64(total))
		}
	}
	return out
}

// Table1Row is one column of Table 1 (the paper lays techniques out as
// columns; we report them as rows).
type Table1Row struct {
	Technique   string
	PAR         float64
	Inspections int
	// LaborCost is normalized to the NM-blind detector = 1 (paper's
	// normalization).
	LaborCost float64
}

// Table1Result reproduces Table 1.
type Table1Result struct {
	NoDetection, Blind, Aware Table1Row
}

// Table1 runs the 48-hour campaign under three regimes on identical worlds:
// no detection, NM-blind detection with enforcement, and NM-aware detection
// with enforcement. Reported are the realized grid PAR and the labor cost
// (inspection count, normalized to the blind detector).
func Table1(ctx context.Context, spec scenario.Spec) (*Table1Result, error) {
	defer obs.From(ctx).Span("experiments.table1")()
	opts, err := lower(spec)
	if err != nil {
		return nil, err
	}
	days := spec.Horizon.MonitorDays

	// No detection: simulate the campaign with no inspections.
	noDet, err := runNoDetection(ctx, opts, days)
	if err != nil {
		return nil, err
	}

	runKit := func(aware bool) (Table1Row, error) {
		sys, err := core.NewSystem(ctx, opts)
		if err != nil {
			return Table1Row{}, err
		}
		kit := sys.Blind
		if aware {
			kit = sys.Aware
		}
		camp, err := sys.NewCampaign()
		if err != nil {
			return Table1Row{}, err
		}
		results, err := sys.MonitorDays(ctx, kit, camp, days, true)
		if err != nil {
			return Table1Row{}, err
		}
		par, err := metrics.Finite("realized PAR", core.RealizedPAR(results))
		if err != nil {
			return Table1Row{}, fmt.Errorf("experiments: %s: %w", kit.Name, err)
		}
		return Table1Row{
			Technique:   kit.Name,
			PAR:         par,
			Inspections: core.TotalInspections(results),
		}, nil
	}

	blind, err := runKit(false)
	if err != nil {
		return nil, err
	}
	aware, err := runKit(true)
	if err != nil {
		return nil, err
	}

	// Normalize labor to the blind detector (paper's convention).
	blind.LaborCost = 1
	if blind.Inspections > 0 {
		aware.LaborCost = float64(aware.Inspections) / float64(blind.Inspections)
	} else if aware.Inspections > 0 {
		aware.LaborCost = float64(aware.Inspections)
	} else {
		aware.LaborCost = 1
	}

	return &Table1Result{NoDetection: noDet, Blind: blind, Aware: aware}, nil
}

// runNoDetection simulates the monitored window with the campaign active and
// nobody inspecting.
func runNoDetection(ctx context.Context, opts core.Options, days int) (Table1Row, error) {
	sys, err := core.NewSystem(ctx, opts)
	if err != nil {
		return Table1Row{}, err
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		return Table1Row{}, err
	}
	var load timeseries.Series
	for d := 0; d < days; d++ {
		env, err := sys.Engine.PrepareDay(ctx, true)
		if err != nil {
			return Table1Row{}, err
		}
		trace, err := sys.Engine.SimulateDay(ctx, env, camp, true, nil)
		if err != nil {
			return Table1Row{}, err
		}
		load = append(load, trace.Load...)
	}
	par, err := metrics.FinitePAR(load)
	if err != nil {
		return Table1Row{}, fmt.Errorf("experiments: no-detection: %w", err)
	}
	return Table1Row{Technique: "no-detection", PAR: par, Inspections: 0, LaborCost: 0}, nil
}

// RobustnessResult reports the cross-seed stability of the Figure-6
// comparison.
type RobustnessResult struct {
	Seeds []uint64
	// AwareAccuracies and BlindAccuracies are the per-seed results.
	AwareAccuracies, BlindAccuracies []float64
	// AwareMean and BlindMean are the cross-seed means.
	AwareMean, BlindMean float64
	// Wins counts seeds where the NM-aware detector was at least as accurate.
	Wins int
}

// Robustness reruns the Figure-6 comparison across seeds — the ordering
// (aware ≥ blind) is the reproduction's stability claim; the absolute values
// move with the weather realizations.
func Robustness(ctx context.Context, spec scenario.Spec, seeds []uint64) (*RobustnessResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	res := &RobustnessResult{Seeds: seeds}
	for _, seed := range seeds {
		s := spec
		s.Seed = seed
		f6, err := Fig6(ctx, s)
		if err != nil {
			return nil, err
		}
		res.AwareAccuracies = append(res.AwareAccuracies, f6.AwareAccuracy)
		res.BlindAccuracies = append(res.BlindAccuracies, f6.BlindAccuracy)
		res.AwareMean += f6.AwareAccuracy
		res.BlindMean += f6.BlindAccuracy
		if f6.AwareAccuracy >= f6.BlindAccuracy {
			res.Wins++
		}
	}
	res.AwareMean /= float64(len(seeds))
	res.BlindMean /= float64(len(seeds))
	return res, nil
}

// Headline aggregates the paper's headline claims from the experiment
// results, as relative changes (see Section 5's bullet list).
type Headline struct {
	// Fig3VsFig4PARGain: (PAR₃ − PAR₄)/PAR₄ (paper: +5.11%).
	Fig3VsFig4PARGain float64
	// AttackInflationVsBlind: (PAR₅ − PAR₃)/PAR₃ (paper: +29.50%).
	AttackInflationVsBlind float64
	// AttackInflationVsAware: (PAR₅ − PAR₄)/PAR₄ (paper: +36.11%).
	AttackInflationVsAware float64
	// AccuracyGain: aware − blind observation accuracy (paper: +29.19 pts).
	AccuracyGain float64
	// PARReduction: (PAR_blind − PAR_aware)/PAR_blind from Table 1
	// (paper: 8.49%).
	PARReduction float64
	// LaborOverhead: aware labor − 1 (paper: +0.67%).
	LaborOverhead float64
}

// ComputeHeadline derives the headline ratios from the experiment results.
func ComputeHeadline(f3, f4 *PredictionResult, f5 *Fig5Result, f6 *Fig6Result, t1 *Table1Result) Headline {
	return Headline{
		Fig3VsFig4PARGain:      (f3.PAR - f4.PAR) / f4.PAR,
		AttackInflationVsBlind: (f5.PAR - f3.PAR) / f3.PAR,
		AttackInflationVsAware: (f5.PAR - f4.PAR) / f4.PAR,
		AccuracyGain:           f6.AwareAccuracy - f6.BlindAccuracy,
		PARReduction:           (t1.Blind.PAR - t1.Aware.PAR) / t1.Blind.PAR,
		LaborOverhead:          t1.Aware.LaborCost - 1,
	}
}

// String renders the headline comparison against the paper's numbers.
func (h Headline) String() string {
	return fmt.Sprintf(
		"NM-blind vs NM-aware predicted PAR: %+.2f%% (paper +5.11%%)\n"+
			"attack PAR inflation vs blind prediction: %+.2f%% (paper +29.50%%)\n"+
			"attack PAR inflation vs aware prediction: %+.2f%% (paper +36.11%%)\n"+
			"observation accuracy gain: %+.2f points (paper +29.19)\n"+
			"PAR reduction by NM-aware detection: %.2f%% (paper 8.49%%)\n"+
			"labor overhead: %+.2f%% (paper +0.67%%)",
		100*h.Fig3VsFig4PARGain, 100*h.AttackInflationVsBlind, 100*h.AttackInflationVsAware,
		100*h.AccuracyGain, 100*h.PARReduction, 100*h.LaborOverhead)
}
