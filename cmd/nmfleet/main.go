// Command nmfleet is the cross-process fleet supervisor: it partitions a
// fleet scenario into community batches, spawns one nmdetect worker process
// per batch (the hidden -fleet-worker mode) and supervises them with
// per-attempt deadlines, heartbeat-gap detection and bounded, exponentially
// backed-off retries. Workers hand their state off through the shared
// checkpoint directory, so a retried worker resumes from its communities'
// checkpoints instead of recomputing — the merged fleet report of a run
// whose workers crashed and retried is byte-identical to an uninterrupted
// in-process run.
//
// Usage:
//
//	nmfleet -workdir dir [-communities 4] [-n 500] [-seed 42] [-days 2]
//	        [-scenario file.json|preset] [-detector aware|blind] [-noenforce]
//	        [-batch-size 1] [-procs 0] [-retries 2] [-backoff 500ms]
//	        [-max-backoff 1m] [-heartbeat-gap 30s] [-deadline 0] [-kill-grace 2s]
//	        [-max-failed 0] [-report fleet.json] [-worker-bin nmdetect]
//	        [-fleet-workers 1] [-checkpoint-every 10] [-events run.jsonl]
//
// The workdir holds everything a supervised run needs: the canonical
// scenario spec (scenario.json), the fleet manifest, one manifest and one
// report per batch, and one checkpoint per community. Re-running nmfleet on
// an existing workdir resumes it; a workdir taken with a different scenario
// or plan is refused with exit 4. A batch that exhausts its retry budget is
// marked failed in the merged report (sentinel metrics, rollup over the
// survivors); the run still exits 0 while failed batches <= -max-failed.
//
// Exit codes: 0 success, 2 validation, 3 runtime failure (including more
// than -max-failed failed batches), 4 resume-incompatible workdir.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"nmdetect/internal/cli"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
	"nmdetect/internal/supervise"
)

func main() { cli.Main("nmfleet", run) }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nmfleet", flag.ContinueOnError)
	wf := scenario.NewFlags(fs, "n", "seed", "days", "sweeps", "boot", "solver", "scenario")
	fs.IntVar(&wf.Communities, "communities", 2, "fleet width")
	var (
		detector = fs.String("detector", "aware", "aware|blind")
		noEnf    = fs.Bool("noenforce", false, "observe only, never repair")

		workdir  = fs.String("workdir", "", "working directory: scenario, manifests, checkpoints and batch reports (required)")
		report   = fs.String("report", "", "also write the merged fleet report as JSON to this file")
		worker   = fs.String("worker-bin", "nmdetect", "worker binary (a path, or a name resolved next to nmfleet then on PATH)")
		innerW   = fs.Int("fleet-workers", 1, "per-worker-process fleet fan-out (1 = sequential inside each worker; the process fan-out is -procs)")
		ckptK    = fs.Int("checkpoint-every", 10, "days between per-community checkpoints")
		batchSz  = fs.Int("batch-size", 1, "communities per worker process")
		procs    = fs.Int("procs", 0, "concurrent worker processes (0 = all cores)")
		retries  = fs.Int("retries", 2, "per-batch retry budget after the first attempt")
		backoff  = fs.Duration("backoff", 500*time.Millisecond, "base retry backoff (doubled per retry, jittered deterministically from the seed)")
		maxBack  = fs.Duration("max-backoff", time.Minute, "retry backoff cap")
		hbGap    = fs.Duration("heartbeat-gap", 30*time.Second, "kill a worker silent for this long (0 disables)")
		deadline = fs.Duration("deadline", 0, "per-attempt wall-clock bound (0 disables)")
		grace    = fs.Duration("kill-grace", 2*time.Second, "SIGTERM-to-SIGKILL escalation delay")
		heartBt  = fs.Duration("heartbeat", 5*time.Second, "worker heartbeat period")
		maxFail  = fs.Int("max-failed", 0, "tolerated failed batches before the run itself fails")
		events   = fs.String("events", "", "write a JSONL run-event stream to this file")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *workdir == "" {
		return exitcode.AsValidation(fmt.Errorf("-workdir is required"))
	}
	spec, err := wf.Spec(nil)
	if err != nil {
		return exitcode.AsValidation(err)
	}

	// Flags override the scenario's supervise block; the block fills in only
	// the knobs the command line left untouched.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if sup := spec.Supervise; sup != nil {
		if !set["batch-size"] && sup.BatchSize > 0 {
			*batchSz = sup.BatchSize
		}
		if !set["retries"] && sup.Retries > 0 {
			*retries = sup.Retries
		}
		if !set["backoff"] && sup.BackoffMS > 0 {
			*backoff = time.Duration(sup.BackoffMS) * time.Millisecond
		}
		if !set["heartbeat"] && sup.HeartbeatMS > 0 {
			*heartBt = time.Duration(sup.HeartbeatMS) * time.Millisecond
		}
	}

	if err := obs.Setup(obs.RunConfig{
		Cmd: "nmfleet", EventsPath: *events,
		ScenarioID: spec.ID(), Seed: spec.Seed, Workers: *procs,
	}); err != nil {
		return err
	}

	fcfg, err := spec.FleetConfig()
	if err != nil {
		return err
	}
	if *detector != fleet.DetectorAware && *detector != fleet.DetectorBlind {
		return exitcode.AsValidation(fmt.Errorf("unknown detector %q", *detector))
	}
	fcfg.Detector = *detector
	fcfg.Enforce = !*noEnf
	fcfg.CheckpointDir = *workdir
	fcfg.CheckpointEvery = *ckptK

	// Pin the workdir: fleet manifest (refuses a foreign directory with
	// exit 4) and the canonical scenario file every worker runs from.
	if err := fleet.EnsureManifest(fcfg); err != nil {
		return err
	}
	scenPath := filepath.Join(*workdir, "scenario.json")
	if err := ensureScenario(scenPath, spec); err != nil {
		return err
	}

	workerBin, err := resolveWorker(*worker)
	if err != nil {
		return exitcode.AsValidation(err)
	}

	plan, err := supervise.Plan(fcfg.Communities, *batchSz)
	if err != nil {
		return exitcode.AsValidation(err)
	}
	fmt.Fprintf(os.Stderr, "nmfleet: %d communities x %d meters in %d batches of <= %d, worker %s\n",
		fcfg.Communities, fcfg.Size, len(plan), *batchSz, workerBin)

	scfg := supervise.Config{
		Batches:      plan,
		Procs:        *procs,
		Retries:      *retries,
		Backoff:      *backoff,
		MaxBackoff:   *maxBack,
		HeartbeatGap: *hbGap,
		Deadline:     *deadline,
		KillGrace:    *grace,
		Seed:         spec.Seed,
		Spawn: func(b supervise.Batch, attempt int) (*exec.Cmd, error) {
			args := []string{
				"-fleet-worker",
				"-scenario", scenPath,
				"-batch", fmt.Sprint(b.Index),
				"-batch-size", fmt.Sprint(*batchSz),
				"-batch-report", batchReportPath(*workdir, b.Index),
				"-fleet-checkpoint", *workdir,
				"-detector", *detector,
				"-fleet-workers", fmt.Sprint(*innerW),
				"-checkpoint-every", fmt.Sprint(*ckptK),
				"-heartbeat", heartBt.String(),
			}
			if *noEnf {
				args = append(args, "-noenforce")
			}
			cmd := exec.Command(workerBin, args...)
			cmd.Stderr = os.Stderr
			return cmd, nil
		},
		Log: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "nmfleet: "+format+"\n", a...)
		},
	}
	results, err := supervise.Run(obs.With(ctx, obs.Default()), scfg)
	if err != nil {
		return err
	}

	outcomes := make([]fleet.BatchOutcome, len(results))
	for i, r := range results {
		o := fleet.BatchOutcome{Start: r.Batch.Start, Count: r.Batch.Count, Status: r.Status}
		if r.Status != supervise.StatusFailed {
			rep, err := fleet.LoadBatchReport(batchReportPath(*workdir, r.Batch.Index))
			if err != nil {
				return fmt.Errorf("batch %d succeeded but its report is unreadable: %w", r.Batch.Index, err)
			}
			o.Report = rep
		} else {
			fmt.Fprintf(os.Stderr, "nmfleet: batch %d (communities %d..%d) failed after %d attempts: %v\n",
				r.Batch.Index, r.Batch.Start, r.Batch.Start+r.Batch.Count-1, r.Attempts, r.Err)
		}
		outcomes[i] = o
	}
	merged, err := fleet.MergeReports(fcfg, outcomes)
	if err != nil {
		return err
	}
	if err := merged.Render(stdout); err != nil {
		return err
	}
	if *report != "" {
		if err := cli.WriteFile(*report, merged.WriteJSON); err != nil {
			return err
		}
	}
	if failed := supervise.Failed(results); failed > *maxFail {
		return fmt.Errorf("%d batches failed, budget -max-failed=%d", failed, *maxFail)
	}
	return nil
}

func batchReportPath(dir string, b int) string {
	return filepath.Join(dir, fmt.Sprintf("batch-%03d.json", b))
}

// ensureScenario writes the canonical spec into the workdir, or — on a
// resumed run — verifies the existing file describes the same experiment
// (same content ID); a different scenario means the workdir belongs to
// another run and is refused.
func ensureScenario(path string, spec scenario.Spec) error {
	if existing, err := scenario.LoadFile(path); err == nil {
		if existing.ID() != spec.ID() {
			return exitcode.AsValidation(fmt.Errorf("workdir scenario %s is %s, this run is %s — refusing to mix runs",
				path, existing.ID(), spec.ID()))
		}
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return cli.WriteFile(path, spec.Save)
}

// resolveWorker locates the worker binary: an explicit path is used as
// given; a bare name is looked up next to the nmfleet executable first
// (the common install layout), then on PATH.
func resolveWorker(name string) (string, error) {
	if filepath.Base(name) != name {
		if _, err := os.Stat(name); err != nil {
			return "", fmt.Errorf("worker binary %s: %w", name, err)
		}
		return name, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), name)
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	path, err := exec.LookPath(name)
	if err != nil {
		return "", fmt.Errorf("worker binary %q not found next to nmfleet or on PATH: %w", name, err)
	}
	return path, nil
}
