package main

import (
	"context"
	"fmt"
	"time"

	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/fleet"
	"nmdetect/internal/scenario"
)

// Fleet shape: fleetCommunities communities of fleetMeters meters, each
// solved hierarchically over fleetShards shards.
const (
	fleetCommunities = 2
	fleetMeters      = 128
	fleetShards      = 2
)

// fleetTracePairs is how many untraced/traced fleet days a traced fleet run
// monitors at one worker, before one more traced day at full width.
const fleetTracePairs = 2

// fleetSpec is the fleet workload's world: two 128-meter communities with
// the sharded solver and the QMDP policy, one solver worker per community.
// Set-up is shortened to 4 bootstrap days (the forecaster needs 3) and one
// baseline day: at the defaults a build takes about 14 s, and a run builds
// three times, which would not leave the runs of a check inside their time
// budget.
func fleetSpec(seed uint64) scenario.Spec {
	s := scenario.Default(fleetMeters, seed)
	s.Name = "perfbench-fleet"
	s.Horizon.BootstrapDays = 4
	s.Horizon.BaselineDays = 1
	s.Fleet = &scenario.Fleet{Communities: fleetCommunities}
	s.Game.Shards = fleetShards
	s.Detector.Solver = "qmdp"
	s.Game.Workers = 1
	return s
}

// fleetDay advances every community by one day through the fleet day loop
// (Drive skips communities already past a tick, so driving to done+1 days
// steps each exactly once) and checks the new days.
func fleetDay(ctx context.Context, cfg fleet.Config, runners []*core.Runner) error {
	cfg.Days = runners[0].Completed() + 1
	if err := fleet.Drive(ctx, cfg, runners); err != nil {
		return err
	}
	for i, r := range runners {
		res := r.Results()
		if len(res) != cfg.Days {
			return fmt.Errorf("community %d has %d days after a %d-day drive", i, len(res), cfg.Days)
		}
		if err := checkDay(res[len(res)-1]); err != nil {
			return fmt.Errorf("community %d: %w", i, err)
		}
	}
	return nil
}

// checkFleet records the end-of-run fleet checks and returns the detection
// quality across communities.
func checkFleet(out *outcome, cfg fleet.Config, runners []*core.Runner) quality {
	cfg.Days = runners[0].Completed()
	rep, err := fleet.NewReport(cfg, runners)
	out.ops.add(err)
	if err == nil {
		out.check(rep.Failed == 0, "fleet report has %d failed communities", rep.Failed)
	}
	runs := make([][]*community.MonitorDayResult, len(runners))
	for i, r := range runners {
		runs[i] = r.Results()
	}
	q := qualityOf(runs)
	out.checkQuality(q)
	return q
}

func runFleet(ctx context.Context, cfg config) (*outcome, error) {
	seed, err := stratify(cfg.seed, "perfbench-fleet", func(c uint64) []scenario.Spec {
		members := make([]scenario.Spec, fleetCommunities)
		for i := range members {
			members[i] = fleetSpec(c).CommunitySpec(i)
		}
		return members
	})
	if err != nil {
		return nil, err
	}
	spec := fleetSpec(seed)
	out := newOutcome()
	out.scenarios["fleet"] = spec.ID()
	fcfg, err := spec.FleetConfig()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return out, traceFleet(ctx, out, fcfg, cfg.nproc)
	}
	fcfg.Workers = cfg.nproc

	var first []rates
	r, err := runRounds(ctx, cfg.budget, func(ctx context.Context) (round, error) {
		runners, err := fleet.Build(ctx, fcfg)
		if err != nil {
			return round{}, err
		}
		for c, rn := range runners {
			if got := ratesOf(rn.System()); len(first) < len(runners) {
				first = append(first, got)
			} else {
				out.check(got == first[c], "community %d calibrated %v, in the first build %v", c, got, first[c])
			}
		}
		return round{
			step: func(ctx context.Context) error { return fleetDay(ctx, fcfg, runners) },
			done: func() { checkFleet(out, fcfg, runners) },
		}, nil
	})
	if out.steps(len(r.steps), err) {
		return out, nil
	}
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	out.endToEndDays(r, fleetCommunities*fleetMeters)
	out.metrics["peak_rss_mb"] = rss
	return out, nil
}

// traceFleet is the traced fleet run. Set-up and the alternating days run
// at one fleet worker, where spans nest strictly; a last traced day at
// full width measures how busy the workers were.
func traceFleet(ctx context.Context, out *outcome, fcfg fleet.Config, width int) error {
	fcfg.Workers = 1
	var runners []*core.Runner
	t0 := time.Now()
	setupEv, err := capture(ctx, func(ctx context.Context) error {
		var err error
		runners, err = fleet.Build(ctx, fcfg)
		return err
	})
	if err != nil {
		return fmt.Errorf("traced fleet build: %w", err)
	}
	buildWall := time.Since(t0)
	p, err := alternate(ctx, fleetTracePairs, func(ctx context.Context) error {
		return fleetDay(ctx, fcfg, runners)
	})
	if out.steps(len(p.plain)+len(p.traced), err) {
		return nil
	}
	wide := fcfg
	wide.Workers = width
	wideEv, err := capture(ctx, func(ctx context.Context) error { return fleetDay(ctx, wide, runners) })
	if out.steps(1, err) {
		return nil
	}

	out.setupLayers(setupEv, 1, buildWall)
	out.dayLayers(p.streams, p.traced)
	out.metrics["parallel.occupancy_mean"] = wideEv.stats["parallel.occupancy"].mean()
	out.metrics["fleet.build_s"] = buildWall.Seconds()
	out.metrics["fleet.monitor_s"] = median(p.traced) / 1e3
	out.setOverhead(p.traced, p.plain)
	out.absent(checkpointLayers...)
	out.absent(serveLayers...)
	out.setQuality(checkFleet(out, fcfg, runners))
	return nil
}
