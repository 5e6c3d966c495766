package experiments

import (
	"context"

	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
)

// Fleet runs the scenario as a multi-community fleet: the spec's fleet
// width of independent communities of spec.N meters each, seeded from
// spec.Seed by label derivation, monitored for the spec's monitoring window
// with the chosen detector (fleet.DetectorAware or fleet.DetectorBlind) and
// enforcement on, and aggregated into a fleet report. fleetWorkers bounds
// the fleet-level fan-out and — like every Workers knob — never affects
// results.
func Fleet(ctx context.Context, spec scenario.Spec, detector string, fleetWorkers int) (*fleet.Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sink := obs.From(ctx)
	defer sink.Span("experiments.fleet")()
	fc, err := spec.FleetConfig()
	if err != nil {
		return nil, err
	}
	fc.Detector = detector
	fc.Workers = fleetWorkers
	return fleet.Run(ctx, fc)
}
