package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"nmdetect/internal/attack"
	"nmdetect/internal/core"
	"nmdetect/internal/metrics"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
)

// AttackSweepRow is one archetype of the detection-accuracy-vs-archetype
// sweep: the NM-aware detector monitored the same seeded world under a
// different campaign payload (and, for the coordinated archetype, different
// strike timing).
type AttackSweepRow struct {
	// Archetype is the sweep's stable row label.
	Archetype string
	// Payload is the payload's self-description (attack.Attack.Name); for
	// the adaptive archetype it includes the tuned intensity.
	Payload string
	// Accuracy is the detector's observation accuracy over the window.
	Accuracy float64
	// PAR is the realized grid peak-to-average ratio under enforcement.
	PAR float64
	// Inspections counts inspect actions over the window.
	Inspections int
	// Episodes counts intrusion episodes; Answered how many an inspection
	// answered.
	Episodes int
	Answered int
	// MeanDelay is the mean detection delay in slots over answered
	// episodes, or -1 when none was answered.
	MeanDelay float64
	// TunedIntensity is the adaptive attacker's chosen intensity in [0,1],
	// or -1 for every non-adaptive archetype.
	TunedIntensity float64
}

// AttackSweepResult reports detection quality versus attack archetype.
type AttackSweepResult struct {
	Rows []AttackSweepRow
}

// sweepArchetype pairs an attack block (and optional coordinated strike
// timing) with its stable row label.
type sweepArchetype struct {
	name    string
	atk     scenario.Attack
	strikes []int
}

// sweepArchetypes is the built-in archetype list: the paper's pricing
// attacks, the related-work extensions (ramp/delay creep, fabricated DSM
// shift, false net-metering readings), coordinated strike timing, and the
// strategic adaptive attacker tuned against the spec's flagger threshold
// (over the price channel, and over the reading channel when given a
// magnitude).
var sweepArchetypes = []sweepArchetype{
	{name: "none", atk: scenario.Attack{Kind: "none"}},
	{name: "zero-peak", atk: scenario.Attack{Kind: "zero", From: 16, To: 17}},
	{name: "scale-half", atk: scenario.Attack{Kind: "scale", From: 16, To: 19, Factor: 0.5}},
	{name: "ramp-evening", atk: scenario.Attack{Kind: "ramp", From: 12, To: 20, Factor: 0.3}},
	{name: "delay-3h", atk: scenario.Attack{Kind: "delay", Slots: 3}},
	{name: "invert", atk: scenario.Attack{Kind: "invert"}},
	{name: "load-shift-noon", atk: scenario.Attack{Kind: "load-shift", From: 10, To: 14, Factor: 0.4}},
	{name: "false-reading", atk: scenario.Attack{Kind: "false-reading", From: 10, To: 15, MagnitudeKW: 0.8}},
	{name: "coordinated", atk: scenario.Attack{Kind: "zero", From: 16, To: 17}, strikes: []int{2, 8, 14, 20}},
	{name: "adaptive", atk: scenario.Attack{Kind: "adaptive", From: 16, To: 19}},
	{name: "adaptive-theft", atk: scenario.Attack{Kind: "adaptive", From: 10, To: 15, MagnitudeKW: 2}},
}

// AttackSweep measures how detection quality varies across attack
// archetypes: for each archetype it installs the archetype's attack block
// and strike timing in the spec and rebuilds the full system (so channel
// calibration sees that archetype's payload — and the adaptive attacker
// tunes against the detector before calibration), runs the monitored window
// with the NM-aware detector enforcing, and reports accuracy, realized PAR,
// inspections and per-episode detection delay.
func AttackSweep(ctx context.Context, spec scenario.Spec) (*AttackSweepResult, error) {
	defer obs.From(ctx).Span("experiments.attacksweep")()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := &AttackSweepResult{}
	for _, arch := range sweepArchetypes {
		s := spec
		s.Attack = arch.atk
		s.Campaign.StrikeSlots = arch.strikes
		opts, err := s.CoreOptions()
		if err != nil {
			return nil, fmt.Errorf("experiments: archetype %s: %w", arch.name, err)
		}
		sys, err := core.NewSystem(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: archetype %s: %w", arch.name, err)
		}
		camp, err := sys.NewCampaign()
		if err != nil {
			return nil, fmt.Errorf("experiments: archetype %s: %w", arch.name, err)
		}
		results, err := sys.MonitorDays(ctx, sys.Aware, camp, s.Horizon.MonitorDays, true)
		if err != nil {
			return nil, fmt.Errorf("experiments: archetype %s: %w", arch.name, err)
		}
		par, err := metrics.Finite("realized PAR", core.RealizedPAR(results))
		if err != nil {
			return nil, fmt.Errorf("experiments: archetype %s: %w", arch.name, err)
		}
		delays, mean := core.DetectionDelays(results)
		row := AttackSweepRow{
			Archetype:      arch.name,
			Payload:        opts.Attack.Name(),
			Accuracy:       core.ObservationAccuracy(results),
			PAR:            par,
			Inspections:    core.TotalInspections(results),
			Episodes:       len(delays),
			MeanDelay:      -1,
			TunedIntensity: -1,
		}
		for _, d := range delays {
			if d >= 0 {
				row.Answered++
			}
		}
		if !math.IsNaN(mean) {
			row.MeanDelay = mean
		}
		if ad, ok := opts.Attack.(*attack.Adaptive); ok {
			if x, tuned := ad.Intensity(); tuned {
				row.TunedIntensity = x
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteJSON writes the sweep as indented JSON. Every float is finite by
// construction (NaN delays are encoded as the -1 sentinel), so encoding
// cannot fail on values.
func (r *AttackSweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("experiments: encode attack sweep: %w", err)
	}
	return nil
}

// Render writes the sweep as an aligned text table.
func (r *AttackSweepResult) Render(w io.Writer) error {
	if len(r.Rows) == 0 {
		return fmt.Errorf("experiments: empty attack sweep")
	}
	fmt.Fprintf(w, "%-16s %-44s %9s %8s %8s %9s %9s %9s\n",
		"archetype", "payload", "accuracy", "PAR", "inspect", "episodes", "answered", "delay")
	for _, row := range r.Rows {
		delay := "—"
		if row.MeanDelay >= 0 {
			delay = fmt.Sprintf("%.1f", row.MeanDelay)
		}
		fmt.Fprintf(w, "%-16s %-44s %8.2f%% %8.4f %8d %9d %9d %9s\n",
			row.Archetype, row.Payload, 100*row.Accuracy, row.PAR,
			row.Inspections, row.Episodes, row.Answered, delay)
	}
	return nil
}
