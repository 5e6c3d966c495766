package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/detect"
	"nmdetect/internal/scenario"
)

// sessionFile is the durable identity of a session, written once at creation
// into the session's state directory. On daemon restart (or a
// recreate-after-eviction) it is all that is needed to rebuild the session:
// the offline phase (core.NewSystem) is a pure function of the scenario, and
// the runner's mutable state lives in the checkpoint next to it.
type sessionFile struct {
	ID string `json:"id"`
	// ScenarioID pins the scenario content hash, so a state directory whose
	// spec was edited after the fact is refused instead of silently resumed
	// into a different experiment.
	ScenarioID string        `json:"scenario_id"`
	Scenario   scenario.Spec `json:"scenario"`
	Detector   string        `json:"detector"`
	Enforce    bool          `json:"enforce"`
}

// Session is one supervised, checkpoint-backed detection unit: a built
// core.System plus a core.Runner advancing it one monitored day per ingest
// request. All mutation happens under mu, so days of one session serialize
// while distinct sessions step concurrently.
type Session struct {
	id       string
	detector string
	enforce  bool
	spec     scenario.Spec
	scenID   string
	days     int // monitoring horizon (spec.Horizon.MonitorDays)
	dir      string

	mu     sync.Mutex
	sys    *core.System
	runner *core.Runner
	// broken marks a session whose step failed (watchdog timeout, solver
	// divergence): its in-memory state may have advanced partway through a
	// day, so it must not be stepped or checkpointed again. The on-disk
	// checkpoint still holds the last good state.
	broken bool
}

// idPattern bounds the characters of client-chosen session IDs: they become
// directory names.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// validSessionID reports whether id is safe to use as a session directory
// name. "." and ".." match idPattern but are path navigation, not names: a
// session called ".." would place its state files (and aim a purge's
// RemoveAll) at the state root instead of under <StateDir>/sessions.
func validSessionID(id string) bool {
	return idPattern.MatchString(id) && id != "." && id != ".."
}

// deriveID is the default session ID: a stable digest of what the session
// computes (scenario content, detector choice, enforcement), so recreating
// "the same" session lands on the same state directory and resumes it.
func deriveID(scenarioID, detector string, enforce bool) string {
	sum := sha256.Sum256([]byte(scenarioID + "|" + detector + "|" + strconv.FormatBool(enforce)))
	return "s-" + hex.EncodeToString(sum[:])[:12]
}

// buildSession runs the deterministic offline phase for sf and wires a
// runner over the session's checkpoint file. When the checkpoint already
// exists (daemon restart, recreate after eviction) the runner resumes it;
// core.NewRunner guards against a kit or enforce mismatch.
func buildSession(ctx context.Context, sf sessionFile, dir string, every int) (*Session, error) {
	opts, err := sf.Scenario.CoreOptions()
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: build: %w", sf.ID, err)
	}
	kit := sys.Aware
	if sf.Detector == DetectorBlind {
		kit = sys.Blind
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: campaign: %w", sf.ID, err)
	}
	runner, err := sys.NewRunner(kit, camp, sf.Enforce, filepath.Join(dir, checkpointName), every)
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", sf.ID, err)
	}
	return &Session{
		id:       sf.ID,
		detector: sf.Detector,
		enforce:  sf.Enforce,
		spec:     sf.Scenario,
		scenID:   sf.ScenarioID,
		days:     sf.Scenario.Horizon.MonitorDays,
		dir:      dir,
		sys:      sys,
		runner:   runner,
	}, nil
}

// DayReply is the JSON verdict returned for one ingested day: the per-slot
// flagger counts, the POMDP's belief and actions, and the PAR bookkeeping.
// Non-finite PAR values (an all-zero load window) are reported as the -1
// sentinel, mirroring the fleet report convention.
type DayReply struct {
	Session   string `json:"session"`
	Day       int    `json:"day"`
	Completed int    `json:"completed"`
	Days      int    `json:"days"`
	// Flagged[h] is the raw number of meters the deviation channel flagged
	// at slot h; Estimated[h] the debiased hacked-count estimate.
	Flagged   []int `json:"flagged"`
	Estimated []int `json:"estimated"`
	// ObsBucket/BeliefBucket/TrueBucket are the bucketed observation, the
	// POMDP's MAP state estimate and the ground truth per slot.
	ObsBucket    []int `json:"obs_bucket"`
	BeliefBucket []int `json:"belief_bucket"`
	TrueBucket   []int `json:"true_bucket"`
	// Actions[h] is "inspect" or "continue" — the POMDP's decision after
	// slot h.
	Actions     []string `json:"actions"`
	Inspections int      `json:"inspections"`
	// ImputedReadings/Degraded/Confidence report input quality (AMI dropout
	// handling) for the day.
	ImputedReadings int     `json:"imputed_readings"`
	Degraded        bool    `json:"degraded"`
	Confidence      float64 `json:"confidence"`
	// PAR is the realized peak-to-average ratio of this day's community
	// load; CumPAR the PAR of the whole monitored window so far; PARDelta
	// the change in window PAR this day contributed (0 for the first day).
	PAR      float64 `json:"par"`
	CumPAR   float64 `json:"par_cum"`
	PARDelta float64 `json:"par_delta"`
}

// finiteOrSentinel maps non-finite metric values to the JSON-safe -1
// sentinel used by the fleet report.
func finiteOrSentinel(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// dayReply assembles the verdict for results[day] of a session that has
// completed `completed` days.
func dayReply(id string, day, completed, days int, results []*community.MonitorDayResult) DayReply {
	res := results[day]
	actions := make([]string, len(res.Actions))
	for h, a := range res.Actions {
		if a == detect.ActionInspect {
			actions[h] = "inspect"
		} else {
			actions[h] = "continue"
		}
	}
	dayPAR := finiteOrSentinel(core.RealizedPAR(results[day : day+1]))
	cum := finiteOrSentinel(core.RealizedPAR(results[:day+1]))
	delta := 0.0
	if day > 0 {
		if prev := finiteOrSentinel(core.RealizedPAR(results[:day])); prev != -1 && cum != -1 {
			delta = cum - prev
		}
	}
	return DayReply{
		Session:         id,
		Day:             day,
		Completed:       completed,
		Days:            days,
		Flagged:         res.Flagged,
		Estimated:       res.Estimated,
		ObsBucket:       res.ObsBucket,
		BeliefBucket:    res.BeliefBucket,
		TrueBucket:      res.TrueBucket,
		Actions:         actions,
		Inspections:     core.TotalInspections(results[day : day+1]),
		ImputedReadings: res.ImputedReadings,
		Degraded:        res.Degraded,
		Confidence:      res.Confidence,
		PAR:             dayPAR,
		CumPAR:          cum,
		PARDelta:        delta,
	}
}

// Status is the JSON session summary returned by the list and get
// endpoints.
type Status struct {
	ID         string `json:"id"`
	ScenarioID string `json:"scenario_id"`
	Detector   string `json:"detector"`
	Enforce    bool   `json:"enforce"`
	Completed  int    `json:"completed"`
	Days       int    `json:"days"`
}

// status snapshots the session under its lock.
func (s *Session) status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		ID:         s.id,
		ScenarioID: s.scenID,
		Detector:   s.runner.KitName(),
		Enforce:    s.runner.Enforce(),
		Completed:  s.runner.Completed(),
		Days:       s.days,
	}
}

// saveSessionFile persists sf into dir.
func saveSessionFile(dir string, sf sessionFile) error {
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteAtomic(filepath.Join(dir, sessionFileName), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// loadSessionFile reads and verifies a session file: the stored scenario
// must still hash to the stored content ID, so a hand-edited state
// directory is refused as resume-incompatible rather than resumed into a
// different experiment.
func loadSessionFile(dir string) (sessionFile, error) {
	raw, err := os.ReadFile(filepath.Join(dir, sessionFileName))
	if err != nil {
		return sessionFile{}, err
	}
	var sf sessionFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		return sessionFile{}, fmt.Errorf("serve: %s: %w", filepath.Join(dir, sessionFileName), err)
	}
	if err := sf.Scenario.Validate(); err != nil {
		return sessionFile{}, err
	}
	if got := sf.Scenario.ID(); got != sf.ScenarioID {
		return sessionFile{}, fmt.Errorf("serve: %s: scenario hashes to %s but the session was created as %s: %w",
			dir, got, sf.ScenarioID, errIncompatibleState)
	}
	if sf.Detector != DetectorAware && sf.Detector != DetectorBlind {
		return sessionFile{}, fmt.Errorf("serve: %s: unknown detector %q: %w", dir, sf.Detector, errIncompatibleState)
	}
	return sf, nil
}
