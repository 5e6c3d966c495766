package core

import (
	"nmdetect/internal/attack"
	"nmdetect/internal/checkpoint"
	"nmdetect/internal/community"
)

// MonitorKind is the checkpoint payload kind for monitoring runs.
const MonitorKind = "monitor-run"

// MonitorState is the complete runtime state of a monitoring run after some
// number of completed days: everything MonitorDays mutates, and nothing the
// deterministic offline phase (NewSystem) reproduces on its own. Restoring
// it into a freshly constructed System with the same Options continues the
// run bit-for-bit, because every per-day random stream is a pure function of
// (seed, day index) — the engine carries no cursor-style RNG state.
type MonitorState struct {
	// KitName guards against resuming with the wrong detector variant.
	KitName string
	// Completed is the number of monitored days already in Results.
	Completed int
	// Enforce records whether inspections repaired the fleet; a resume with
	// a different setting would splice two different experiments.
	Enforce bool
	// Engine is the simulated world's utility-side state.
	Engine community.EngineState
	// Campaign is the intrusion state (which meters are compromised).
	Campaign attack.CampaignState
	// Kit is the detector's mutable state (deviation channel + POMDP belief).
	Kit community.KitState
	// Results holds the completed days' monitoring results.
	Results []*community.MonitorDayResult
}

func (s *System) saveMonitor(path string, kit *community.DetectorKit, camp *attack.Campaign, enforce bool, results []*community.MonitorDayResult) error {
	st := MonitorState{
		KitName:   kit.Name,
		Completed: len(results),
		Enforce:   enforce,
		Engine:    s.Engine.State(),
		Campaign:  camp.State(),
		Kit:       kit.State(),
		Results:   results,
	}
	return checkpoint.Save(path, MonitorKind, &st)
}
