package main

import (
	"context"
	"fmt"
	"time"

	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/scenario"
)

// batchMeters is the batch community size.
const batchMeters = 48

// batchTracePairs is how many untraced/traced day pairs a traced batch run
// monitors: a fixed amount of work, so its counts repeat exactly per seed.
const batchTracePairs = 6

// batchSpec is the batch workload's world: one 48-meter community, the flat
// solver, the PBVI policy and one solver worker — the nmdetect path.
func batchSpec(seed uint64) scenario.Spec {
	s := scenario.Default(batchMeters, seed)
	s.Name = "perfbench-batch"
	s.Detector.Solver = "pbvi"
	s.Game.Workers = 1
	return s
}

// newBatchRunner wires the aware kit with enforcement around a built system.
func newBatchRunner(sys *core.System) (*core.Runner, error) {
	camp, err := sys.NewCampaign()
	if err != nil {
		return nil, err
	}
	return sys.NewRunner(sys.Aware, camp, true, "", 1)
}

func runBatch(ctx context.Context, cfg config) (*outcome, error) {
	seed, err := stratify(cfg.seed, "perfbench-batch", func(c uint64) []scenario.Spec {
		return []scenario.Spec{batchSpec(c)}
	})
	if err != nil {
		return nil, err
	}
	spec := batchSpec(seed)
	out := newOutcome()
	out.scenarios["batch"] = spec.ID()
	opts, err := spec.CoreOptions()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return out, traceBatch(ctx, out, opts)
	}

	var first *rates
	r, err := runRounds(ctx, cfg.budget, func(ctx context.Context) (round, error) {
		sys, err := core.NewSystem(ctx, opts)
		if err != nil {
			return round{}, err
		}
		if got := ratesOf(sys); first == nil {
			first = &got
		} else {
			out.check(got == *first, "set-up calibrated %v, the first set-up %v", got, *first)
		}
		runner, err := newBatchRunner(sys)
		if err != nil {
			return round{}, err
		}
		return round{
			step: func(ctx context.Context) error { return stepChecked(ctx, runner) },
			done: func() { out.checkQuality(qualityOf([][]*community.MonitorDayResult{runner.Results()})) },
		}, nil
	})
	if out.steps(len(r.steps), err) {
		return out, nil
	}
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	out.endToEndDays(r, batchMeters)
	out.metrics["peak_rss_mb"] = rss
	return out, nil
}

// traceBatch is the traced batch run: one traced set-up, then alternating
// untraced and traced days at one worker.
func traceBatch(ctx context.Context, out *outcome, opts core.Options) error {
	var sys *core.System
	t0 := time.Now()
	setupEv, err := capture(ctx, func(ctx context.Context) error {
		var err error
		sys, err = core.NewSystem(ctx, opts)
		return err
	})
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	setupWall := time.Since(t0)
	r, err := newBatchRunner(sys)
	if err != nil {
		return err
	}
	p, err := alternate(ctx, batchTracePairs, func(ctx context.Context) error { return stepChecked(ctx, r) })
	if out.steps(len(p.plain)+len(p.traced), err) {
		return nil
	}
	out.setupLayers(setupEv, 1, setupWall)
	out.dayLayers(p.streams, p.traced)
	out.metrics["engine.monitor_day_ms"] = median(p.traced)
	out.setOverhead(p.traced, p.plain)
	out.absent(fleetLayers...)
	out.absent(checkpointLayers...)
	out.absent(serveLayers...)
	q := qualityOf([][]*community.MonitorDayResult{r.Results()})
	out.checkQuality(q)
	out.setQuality(q)
	return nil
}
