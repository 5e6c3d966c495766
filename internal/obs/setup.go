package obs

import "sync"

// RunConfig bundles the observability flags a command collected, plus the
// manifest identity of the run it is about to start.
type RunConfig struct {
	// Cmd names the command for the run manifest ("nmsim", "nmrepro", ...).
	Cmd string
	// EventsPath, when non-empty, opens a JSONL event sink at this path and
	// installs it as the process default.
	EventsPath string
	// PprofAddr, CPUProfile and MemProfile enable the corresponding
	// profiling hooks (see StartProfiling); empty disables.
	PprofAddr  string
	CPUProfile string
	MemProfile string
	// ScenarioID, Seed and Workers are recorded in the run manifest.
	ScenarioID string
	Seed       uint64
	Workers    int
}

// setupState tracks what Setup started so Shutdown can unwind it.
var setupState struct {
	mu          sync.Mutex
	sink        *Sink
	stopProfile func()
}

// Setup starts the observability side of a run: it opens the event sink (if
// requested), installs it as the process default, writes the run manifest,
// and starts the profiling hooks. Commands call it once after flag parsing;
// cli.Main pairs it with Shutdown on every exit path.
//
// With every field empty, Setup is a no-op and Shutdown stays cheap.
func Setup(cfg RunConfig) error {
	setupState.mu.Lock()
	defer setupState.mu.Unlock()

	if cfg.EventsPath != "" {
		sink, err := Open(cfg.EventsPath)
		if err != nil {
			return err
		}
		sink.WriteManifest(Manifest{
			Cmd: cfg.Cmd, ScenarioID: cfg.ScenarioID, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		SetDefault(sink)
		setupState.sink = sink
	}

	stop, err := StartProfiling(cfg.PprofAddr, cfg.CPUProfile, cfg.MemProfile)
	if err != nil {
		if setupState.sink != nil {
			SetDefault(nil)
			setupState.sink.Close() //nolint:errcheck // already failing
			setupState.sink = nil
		}
		return err
	}
	setupState.stopProfile = stop
	return nil
}

// Shutdown unwinds Setup: stops the profiling hooks (flushing the CPU
// profile, writing the heap profile) and closes the event sink. It is
// idempotent; the first call returns the sink's close error, later calls
// return nil.
func Shutdown() error {
	setupState.mu.Lock()
	defer setupState.mu.Unlock()

	if setupState.stopProfile != nil {
		setupState.stopProfile()
		setupState.stopProfile = nil
	}
	var err error
	if setupState.sink != nil {
		SetDefault(nil)
		err = setupState.sink.Close()
		setupState.sink = nil
	}
	return err
}
