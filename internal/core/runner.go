package core

import (
	"context"
	"fmt"

	"nmdetect/internal/attack"
	"nmdetect/internal/checkpoint"
	"nmdetect/internal/community"
)

// Runner is the reusable per-community monitoring unit: one built System
// with a chosen detector kit and attack campaign, advanced one monitored day
// at a time, with an optional checkpoint file (the core.MonitorState format)
// as its hand-off/resume representation. MonitorDays and cmd/nmdetect run one
// Runner to the horizon, and the fleet orchestrator (internal/fleet) drives
// one Runner per community from a shared day loop — both paths execute the
// identical per-day unit, which is what makes a one-community fleet
// bit-for-bit equal to the direct path.
type Runner struct {
	sys     *System
	kit     *community.DetectorKit
	camp    *attack.Campaign
	enforce bool
	path    string
	every   int
	results []*community.MonitorDayResult
}

// NewRunner wires a runner around a built system. kit must be one of the
// system's kits and camp a campaign over the same fleet of meters. path is
// the checkpoint file ("" disables checkpointing); when it already holds a
// checkpoint, the runner restores it — guarding against a mismatched kit,
// enforce setting or an inconsistent snapshot — and Completed reports the
// recorded days. every is the checkpoint cadence in days (minimum 1).
func (s *System) NewRunner(kit *community.DetectorKit, camp *attack.Campaign, enforce bool, path string, every int) (*Runner, error) {
	if every < 1 {
		every = 1
	}
	r := &Runner{sys: s, kit: kit, camp: camp, enforce: enforce, path: path, every: every}
	if path == "" || !checkpoint.Exists(path) {
		return r, nil
	}
	var st MonitorState
	if err := checkpoint.Load(path, MonitorKind, &st); err != nil {
		return nil, err
	}
	if st.KitName != kit.Name {
		return nil, fmt.Errorf("core: checkpoint was taken with kit %q, resuming with %q", st.KitName, kit.Name)
	}
	if st.Enforce != enforce {
		return nil, fmt.Errorf("core: checkpoint was taken with enforce=%v, resuming with %v", st.Enforce, enforce)
	}
	if st.Completed != len(st.Results) {
		return nil, fmt.Errorf("core: checkpoint inconsistent: %d days recorded, %d results", st.Completed, len(st.Results))
	}
	if err := s.Engine.RestoreState(st.Engine); err != nil {
		return nil, fmt.Errorf("core: resume engine: %w", err)
	}
	if err := camp.Restore(st.Campaign); err != nil {
		return nil, fmt.Errorf("core: resume campaign: %w", err)
	}
	if err := kit.RestoreState(st.Kit, s.opts.Community.N); err != nil {
		return nil, fmt.Errorf("core: resume kit: %w", err)
	}
	r.results = st.Results
	return r, nil
}

// Completed reports the monitored days accumulated so far — restored from a
// checkpoint plus freshly stepped.
func (r *Runner) Completed() int { return len(r.results) }

// Results returns the accumulated per-day results. The slice is the
// runner's backing store; callers must not mutate it.
func (r *Runner) Results() []*community.MonitorDayResult { return r.results }

// System returns the underlying system, e.g. for the metric helpers.
func (r *Runner) System() *System { return r.sys }

// KitName reports the detector kit the runner was wired with.
func (r *Runner) KitName() string { return r.kit.Name }

// Enforce reports whether inspect actions repair the fleet.
func (r *Runner) Enforce() bool { return r.enforce }

// StepDay monitors exactly one day and appends its result. It never writes
// the checkpoint — callers (Run, the fleet day loop) own the cadence.
func (r *Runner) StepDay(ctx context.Context) error {
	res, err := r.sys.Engine.MonitorDay(ctx, r.kit, r.camp, r.sys.Buckets, r.enforce)
	if err != nil {
		return err
	}
	r.results = append(r.results, res)
	return nil
}

// Checkpoint writes the runner's complete state to its checkpoint file; a
// no-op for a runner without one.
func (r *Runner) Checkpoint() error {
	if r.path == "" {
		return nil
	}
	return r.sys.saveMonitor(r.path, r.kit, r.camp, r.enforce, r.results)
}

// CheckpointDue reports whether the configured cadence calls for a save
// after the (1-based) day `done` of a `days`-day horizon: every `every`
// days and at the end. Always false for a runner without a checkpoint file.
func (r *Runner) CheckpointDue(done, days int) bool {
	return r.path != "" && (done%r.every == 0 || done == days)
}

// Run drives the runner until `days` days are complete, checkpointing at
// the configured cadence (and at the end). The context is checked before
// every day in addition to the per-solve granularity inside; days completed
// before a cancellation are not returned but — when checkpointing — stay
// resumable from the last save. A resumed run returns the full result slice
// — restored days plus freshly monitored ones — identical to what an
// uninterrupted run would have produced.
func (r *Runner) Run(ctx context.Context, days int) ([]*community.MonitorDayResult, error) {
	if days < 1 {
		return nil, fmt.Errorf("core: days %d must be positive", days)
	}
	if r.Completed() > days {
		return nil, fmt.Errorf("core: checkpoint already holds %d days, requested only %d", r.Completed(), days)
	}
	for d := r.Completed(); d < days; d++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := r.StepDay(ctx); err != nil {
			return nil, err
		}
		if r.CheckpointDue(d+1, days) {
			if err := r.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	return r.results, nil
}
