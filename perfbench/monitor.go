package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"nmdetect/internal/community"
	"nmdetect/internal/core"
)

// setupRepeats is how many times a run performs its workload's set-up;
// setup_s is the median.
const setupRepeats = 3

// hoursPerDay is the number of metering slots (readings per meter) a day.
const hoursPerDay = 24

// coreStages are the sequential offline stages core.NewSystem spans.
var coreStages = []string{"bootstrap", "learn_baselines", "calibrate", "train_forecasters", "solve_policy"}

// timeLoop calls step until budget has elapsed (finishing the step in
// flight) and at least minSteps steps ran, stopping at the first error. It
// returns each step's duration in milliseconds and the loop's wall time.
func timeLoop(ctx context.Context, budget time.Duration, minSteps int, step func(ctx context.Context) error) ([]float64, time.Duration, error) {
	var durs []float64
	start := time.Now()
	for len(durs) < minSteps || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return durs, time.Since(start), err
		}
		t0 := time.Now()
		if err := step(ctx); err != nil {
			return durs, time.Since(start), err
		}
		durs = append(durs, ms(time.Since(t0)))
	}
	return durs, time.Since(start), nil
}

// rounds is the measured part of a batch or fleet run: setupRepeats
// rounds, each a timed set-up followed by a third of the monitoring budget
// on what it built. Interleaving samples both set-up and monitoring across
// the whole run, so a slow spell on a shared host lands on a share of each
// rather than on all of one.
type rounds struct {
	setups []float64 // seconds per set-up
	steps  []float64 // ms per monitored step
	wall   time.Duration
}

// round is what one set-up built: its day step, and done, which checks the
// round's output once its monitoring segment is over (outside every timer)
// so the round can be dropped before the next set-up.
type round struct {
	step func(ctx context.Context) error
	done func()
}

func runRounds(ctx context.Context, budget time.Duration, setup func(ctx context.Context) (round, error)) (rounds, error) {
	var r rounds
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		rd, err := setup(ctx)
		if err != nil {
			return r, fmt.Errorf("set-up %d: %w", i, err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		steps, wall, err := timeLoop(ctx, budget/setupRepeats, 1, rd.step)
		r.steps = append(r.steps, steps...)
		r.wall += wall
		if err != nil {
			return r, err
		}
		rd.done()
	}
	return r, nil
}

// rates are the channel rates a set-up calibrated; set-up is deterministic,
// so every set-up of one scenario must calibrate the same.
type rates [4]float64

func ratesOf(sys *core.System) rates {
	return rates{sys.AwareFP, sys.AwareFN, sys.BlindFP, sys.BlindFN}
}

// checkDay verifies one monitored day's output shape.
func checkDay(res *community.MonitorDayResult) error {
	switch {
	case len(res.Actions) != hoursPerDay:
		return fmt.Errorf("day has %d actions, want %d", len(res.Actions), hoursPerDay)
	case len(res.BeliefBucket) != hoursPerDay:
		return fmt.Errorf("day has %d belief buckets, want %d", len(res.BeliefBucket), hoursPerDay)
	case res.Trace == nil || len(res.Trace.Load) != hoursPerDay:
		return fmt.Errorf("day has no %d-slot load trace", hoursPerDay)
	}
	if par := core.RealizedPAR([]*community.MonitorDayResult{res}); math.IsNaN(par) || math.IsInf(par, 0) {
		return fmt.Errorf("day realized PAR %v is not finite", par)
	}
	return nil
}

// stepChecked advances r by one day and checks the new day's output.
func stepChecked(ctx context.Context, r *core.Runner) error {
	if err := r.StepDay(ctx); err != nil {
		return err
	}
	res := r.Results()
	return checkDay(res[len(res)-1])
}

// quality is the detection quality over a set of runners: mean accuracy,
// total inspections and mean realized PAR. Recorded, never gated.
type quality struct {
	accuracy, par float64
	inspections   int
}

func qualityOf(runs [][]*community.MonitorDayResult) quality {
	var q quality
	for _, res := range runs {
		q.accuracy += core.ObservationAccuracy(res)
		q.par += core.RealizedPAR(res)
		q.inspections += core.TotalInspections(res)
	}
	q.accuracy /= float64(len(runs))
	q.par /= float64(len(runs))
	return q
}

// checkQuality records the end-of-run checks: accuracy in [0,1] and a
// finite realized PAR.
func (o *outcome) checkQuality(q quality) {
	o.check(q.accuracy >= 0 && q.accuracy <= 1, "observation accuracy %v outside [0,1]", q.accuracy)
	o.check(!math.IsNaN(q.par) && !math.IsInf(q.par, 0), "realized PAR %v not finite", q.par)
}

func (o *outcome) setQuality(q quality) {
	o.metrics["detect.accuracy"] = q.accuracy
	o.metrics["detect.inspections"] = float64(q.inspections)
	o.metrics["detect.realized_par"] = q.par
}

// endToEndDays fills the day-loop metrics shared by batch and fleet. Each
// step is one monitored day of meters meters.
func (o *outcome) endToEndDays(r rounds, meters int) {
	o.metrics["setup_s"] = median(r.setups)
	o.metrics["meter_days_per_s"] = float64(len(r.steps)*meters) / r.wall.Seconds()
	o.metrics["readings_per_s"] = float64(len(r.steps)*meters*hoursPerDay) / r.wall.Seconds()
	o.metrics["day_p50_ms"] = median(r.steps)
	p90 := tail(r.steps, 0.9)
	o.metrics["day_p90_ms"] = p90.Value
	o.note("set-up seconds: %.4g", r.setups)
	o.note("day latency: median %.4g ms; %s", median(r.steps), p90)
}

// pairs is the traced run's alternation of untraced and traced steps.
type pairs struct {
	plain, traced []float64 // step durations, ms
	streams       []*events // one event stream per traced step
}

// alternate runs n pairs of one untraced and one traced step, swapping
// which goes first on every pair so slow drift cancels out of the
// comparison. The traced step runs with a fresh sink attached.
func alternate(ctx context.Context, n int, step func(ctx context.Context) error) (pairs, error) {
	var p pairs
	plain := func() error {
		t0 := time.Now()
		if err := step(ctx); err != nil {
			return err
		}
		p.plain = append(p.plain, ms(time.Since(t0)))
		return nil
	}
	traced := func() error {
		var d time.Duration
		ev, err := capture(ctx, func(ctx context.Context) error {
			t0 := time.Now()
			err := step(ctx)
			d = time.Since(t0)
			return err
		})
		if err != nil {
			return err
		}
		p.traced = append(p.traced, ms(d))
		p.streams = append(p.streams, ev)
		return nil
	}
	for i := 0; i < n; i++ {
		first, second := plain, traced
		if i%2 == 1 {
			first, second = traced, plain
		}
		if err := first(); err != nil {
			return p, err
		}
		if err := second(); err != nil {
			return p, err
		}
	}
	return p, nil
}

// setupLayers fills the core/pomdp/svr layers from a traced set-up's event
// stream. units divides totals when the stream covers several identical
// set-ups run side by side (serve sessions); wall is the benchmark's own
// timer around the set-up, against which the stage spans are reconciled.
func (o *outcome) setupLayers(ev *events, units int, wall time.Duration) {
	var staged int64
	for _, st := range coreStages {
		ns := ev.spanSum("core." + st)
		staged += ns
		o.metrics["core."+st+"_s"] = float64(ns) / 1e9 / float64(units)
	}
	staged += ev.spanSum("core.tune_attacker")
	o.metrics["pomdp.backups"] = float64(ev.counters["pomdp.backups"]) / float64(units)
	o.metrics["svr.smo_sweeps"] = float64(ev.counters["svr.smo.sweeps"]) / float64(units)
	perUnit := float64(staged) / 1e9 / float64(units)
	o.metrics["trace.setup_gap_frac"] = 1 - perUnit/wall.Seconds()
	o.note("set-up: core stages account for %.4g s of %.4g s", perUnit, wall.Seconds())
}

// dayLayers fills the engine/game/ceopt/parallel layers from the event
// streams of traced monitoring steps. stepMs are the benchmark's timers
// around the same steps (or, for serve, the client round trips), against
// which the engine.monitor_day spans are reconciled.
func (o *outcome) dayLayers(streams []*events, stepMs []float64) {
	var all []node
	var perDayExpected []float64
	merged := &events{counters: map[string]int64{}, stats: map[string]statRec{}}
	for _, ev := range streams {
		all = append(all, nest(ev.spans, spanParents)...)
		merged.merge(ev)
		if n := ev.spanCount("engine.monitor_day"); n > 0 {
			rest := ev.spanSum("engine.monitor_day") - ev.spanSum("engine.prepare_day") - ev.spanSum("engine.simulate_day")
			perDayExpected = append(perDayExpected, float64(rest)/1e6/float64(n))
		}
	}
	monitor := nsOf(all, "engine.monitor_day", false, false)
	days := float64(len(monitor))
	if days == 0 {
		days = math.NaN() // no monitored day in the stream: per-day metrics are undefined
	}
	leaf := nsOf(all, "game.solve", false, true)
	o.metrics["engine.monitor_day_ms"] = median(monitor)
	o.metrics["engine.prepare_day_ms"] = median(nsOf(all, "engine.prepare_day", false, false))
	o.metrics["engine.simulate_day_ms"] = median(nsOf(all, "engine.simulate_day", false, false))
	o.metrics["loadpred.expected_ms"] = median(perDayExpected)
	o.metrics["game.solve_ms"] = median(leaf)
	o.metrics["game.solves"] = float64(len(leaf)) / days
	o.metrics["game.sweeps"] = float64(merged.counters["game.sweeps"]) / days
	o.metrics["game.watchdog_retries"] = float64(merged.counters["game.watchdog.retries"])
	o.metrics["game.outer_self_ms"] = medianOr0(nsOf(all, "game.solve.outer", true, false))
	o.metrics["game.outer_sweeps"] = float64(merged.counters["game.outer.sweeps"]) / days
	o.metrics["ceopt.generations_per_solve"] = float64(merged.counters["ceopt.generations"]) / float64(len(leaf))
	o.metrics["ceopt.watchdog_retries"] = float64(merged.counters["ceopt.watchdog.retries"])
	o.metrics["parallel.occupancy_mean"] = merged.stats["parallel.occupancy"].mean()
	spanned, timed := sum(monitor), sum(stepMs)
	o.metrics["trace.monitor_gap_frac"] = 1 - spanned/timed
	o.note("monitoring: engine.monitor_day spans account for %.4g ms of %.4g ms timed", spanned, timed)
}

// absent zeroes the layers a workload does not run, so every traced run
// reports the full per-layer set: a count of 0 is what was measured.
func (o *outcome) absent(names ...string) {
	for _, n := range names {
		o.metrics[n] = 0
	}
}

var (
	fleetLayers      = []string{"fleet.build_s", "fleet.monitor_s"}
	checkpointLayers = []string{"checkpoint.saves", "checkpoint.save_ms_mean", "checkpoint.bytes_last"}
	serveLayers      = []string{"serve.request_ms_mean", "serve.client_wait_ms", "serve.records_ms"}
)

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// traceBudget is the events-on overhead budget of DESIGN.md §9.
const traceBudget = 0.05

// setOverhead reports the traced steps' median duration against the
// untraced steps', minus one, next to the budget.
func (o *outcome) setOverhead(traced, plain []float64) {
	f := median(traced)/median(plain) - 1
	o.metrics["trace.overhead_frac"] = f
	verdict := "within"
	if f > traceBudget {
		verdict = "over"
	}
	o.note("tracing overhead %+.2f%% (median of %d traced vs %d untraced steps), %s the %.0f%% budget of DESIGN.md §9",
		100*f, len(traced), len(plain), verdict, 100*traceBudget)
}
