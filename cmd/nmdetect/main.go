// Command nmdetect runs the full detection pipeline online: it builds the
// system (community, forecasters, calibrated POMDP), launches an attack
// campaign, and prints the per-slot monitoring log of the chosen detector.
//
// Usage:
//
//	nmdetect [-n 500] [-seed 42] [-days 2] [-sweeps 3] [-workers 0] [-jacobi 0]
//	         [-boot 6] [-detector aware|blind] [-solver pbvi|qmdp|threshold] [-noenforce]
//	         [-attack kind[:from-to[:value]]] [-strike-slots 2,8,14,20]
//	         [-communities 1] [-fleet-workers 0] [-fleet-report fleet.json] [-fleet-checkpoint dir]
//	         [-scenario file.json|preset] [-dump-scenario]
//	         [-checkpoint run.ckpt] [-checkpoint-every 10] [-resume]
//	         [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -scenario, the world is described by a scenario spec — a preset name
// or a JSON file — and the world-config flags (-n, -seed, -days, -sweeps,
// -workers, -jacobi, -boot, -solver, -communities) are ignored; -detector
// and -noenforce still apply. -dump-scenario prints the effective spec as
// JSON to stdout (and its content ID to stderr) and exits. SIGINT/SIGTERM
// cancel the build and the monitoring loop at the next sweep/day boundary.
//
// With -checkpoint, the monitoring state is snapshotted to the given file
// every -checkpoint-every days; a killed run restarted with the same flags
// plus -resume continues from the snapshot and produces bit-for-bit the
// output of an uninterrupted run. Without -resume an existing checkpoint is
// an error (stale state is never silently reused).
//
// With -communities F >= 2 (or a scenario fleet block), the run is a fleet:
// F independent communities of -n meters each, seeded by label derivation
// from the base seed, monitored through a shared day loop and aggregated
// into a per-community table plus rollup on stdout (-fleet-report also
// writes it as JSON). -fleet-workers bounds the fleet fan-out and never
// affects results. -fleet-checkpoint names a directory holding one
// checkpoint per community plus a fleet manifest; kill/-resume semantics
// match the single-community path.
//
// With -fleet-worker (spawned by cmd/nmfleet, not meant for direct use),
// the process drives one community batch of a supervised fleet: it computes
// its range from (-batch, -batch-size) via the shared plan, resumes any
// existing community checkpoints under -fleet-checkpoint, emits NMW1
// protocol lines on stdout and writes its batch report to -batch-report.
//
// Exit codes: 0 success, 2 validation (bad flags/spec/world), 3 runtime
// failure, 4 resume-incompatible (foreign or re-planned checkpoint state);
// 1 is reserved for untyped legacy failures.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/cli"
	"nmdetect/internal/core"
	"nmdetect/internal/detect"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
	"nmdetect/internal/supervise"
)

func main() { cli.Main("nmdetect", run) }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nmdetect", flag.ContinueOnError)
	wf := scenario.NewFlags(fs, "n", "seed", "boot", "days", "sweeps", "workers", "jacobi", "active-tol", "shards",
		"solver", "attack", "strike-slots", "communities", "scenario", "dump-scenario")
	var (
		detector = fs.String("detector", "aware", "aware|blind")
		noEnf    = fs.Bool("noenforce", false, "observe only, never repair")
		fleetW   = fs.Int("fleet-workers", 0, "fleet-level worker budget (0 = all cores; execution-only, never affects results)")
		fleetRep = fs.String("fleet-report", "", "also write the fleet report as JSON to this file")
		fleetCk  = fs.String("fleet-checkpoint", "", "checkpoint directory for a fleet run (one file per community + manifest)")
		ckpt     = fs.String("checkpoint", "", "checkpoint file for the monitoring run (empty = no checkpointing)")
		ckptK    = fs.Int("checkpoint-every", 10, "days between checkpoints")
		resume   = fs.Bool("resume", false, "resume from an existing checkpoint instead of failing on one")
		worker   = fs.Bool("fleet-worker", false, "run as a supervised fleet worker: drive one community batch, speak the NMW1 line protocol on stdout (used by cmd/nmfleet)")
		batch    = fs.Int("batch", 0, "fleet-worker batch index")
		batchSz  = fs.Int("batch-size", 0, "fleet-worker batch size (communities per worker)")
		batchRep = fs.String("batch-report", "", "fleet-worker batch report JSON path")
		heartBt  = fs.Duration("heartbeat", 5*time.Second, "fleet-worker heartbeat period")
		obsCfg   = cli.ObsFlags(fs)
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	spec, err := wf.Spec(nil)
	if err != nil {
		return exitcode.AsValidation(err)
	}
	if wf.Dump {
		return spec.Dump(stdout, os.Stderr)
	}
	// Checked before any path builds a system: the build is the expensive
	// part of the run.
	if *detector != fleet.DetectorAware && *detector != fleet.DetectorBlind {
		return exitcode.AsValidation(fmt.Errorf("unknown detector %q", *detector))
	}

	obsCfg.Cmd, obsCfg.ScenarioID, obsCfg.Seed, obsCfg.Workers = "nmdetect", spec.ID(), spec.Seed, spec.Game.Workers
	if err := obs.Setup(*obsCfg); err != nil {
		return err
	}

	if *worker || spec.FleetCommunities() > 1 {
		fcfg, err := spec.FleetConfig()
		if err != nil {
			return err
		}
		fcfg.Detector, fcfg.Enforce, fcfg.Workers = *detector, !*noEnf, *fleetW
		fcfg.CheckpointDir, fcfg.CheckpointEvery = *fleetCk, *ckptK
		if *worker {
			return runFleetWorker(ctx, fcfg, *batch, *batchSz, *batchRep, *heartBt, stdout)
		}
		return runFleet(ctx, fcfg, *fleetRep, *resume, stdout)
	}
	if *fleetRep != "" || *fleetCk != "" {
		return exitcode.AsValidation(fmt.Errorf("-fleet-report/-fleet-checkpoint need a fleet (-communities >= 2 or a scenario fleet block)"))
	}
	if *ckpt != "" && !*resume && checkpoint.Exists(*ckpt) {
		return exitcode.AsValidation(fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove it", *ckpt))
	}
	if *resume && *ckpt == "" {
		return exitcode.AsValidation(fmt.Errorf("-resume requires -checkpoint"))
	}

	opts, err := spec.CoreOptions()
	if err != nil {
		return err
	}

	fmt.Fprintln(os.Stderr, "nmdetect: building system (bootstrap + training + calibration)...")
	sys, err := core.NewSystem(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nmdetect: channel rates — aware fp=%.4f fn=%.4f; blind fp=%.4f fn=%.4f\n",
		sys.AwareFP, sys.AwareFN, sys.BlindFP, sys.BlindFN)

	kit := sys.Aware
	if *detector == fleet.DetectorBlind {
		kit = sys.Blind
	}

	camp, err := sys.NewCampaign()
	if err != nil {
		return err
	}
	runner, err := sys.NewRunner(kit, camp, !*noEnf, *ckpt, *ckptK)
	if err != nil {
		return err
	}
	results, err := runner.Run(ctx, spec.Horizon.MonitorDays)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "slot,flagged,obs_bucket,true_bucket,true_hacked,action")
	slot := 0
	for _, day := range results {
		for h := 0; h < 24; h++ {
			action := "continue"
			if day.Actions[h] == detect.ActionInspect {
				action = "INSPECT"
			}
			fmt.Fprintf(stdout, "%d,%d,%d,%d,%d,%s\n",
				slot, day.Flagged[h], day.ObsBucket[h], day.TrueBucket[h], day.Trace.TrueHacked[h], action)
			slot++
		}
	}
	imputed, degraded := 0, 0
	for _, day := range results {
		imputed += day.ImputedReadings
		if day.Degraded {
			degraded++
		}
	}
	if degraded > 0 {
		fmt.Fprintf(os.Stderr, "nmdetect: degraded inputs on %d/%d days (%d readings imputed)\n",
			degraded, len(results), imputed)
	}
	delays, meanDelay := core.DetectionDelays(results)
	fmt.Fprintf(os.Stderr, "nmdetect: %s observation accuracy = %.2f%%, realized PAR = %.4f, inspections = %d\n",
		kit.Name, 100*core.ObservationAccuracy(results), core.RealizedPAR(results), core.TotalInspections(results))
	fmt.Fprintf(os.Stderr, "nmdetect: %d intrusion episodes, mean detection delay %.1f slots (-1 = never answered: %v)\n",
		len(delays), meanDelay, delays)
	return nil
}

// runFleet is the multi-community path: run the shared day loop and print
// the per-community table plus rollup.
func runFleet(ctx context.Context, fcfg fleet.Config, reportPath string, resume bool, stdout io.Writer) error {
	ckptDir := fcfg.CheckpointDir
	if resume && ckptDir == "" {
		return exitcode.AsValidation(fmt.Errorf("-resume requires -fleet-checkpoint in fleet mode"))
	}
	if ckptDir != "" && !resume && checkpoint.Exists(fleet.ManifestPath(ckptDir)) {
		return exitcode.AsValidation(fmt.Errorf("fleet checkpoint dir %s already holds a run; pass -resume to continue it or remove it", ckptDir))
	}
	fmt.Fprintf(os.Stderr, "nmdetect: building fleet of %d communities x %d meters = %d meters...\n",
		fcfg.Communities, fcfg.Size, fcfg.Communities*fcfg.Size)
	rep, err := fleet.Run(ctx, fcfg)
	if err != nil {
		return err
	}
	if err := rep.Render(stdout); err != nil {
		return err
	}
	if reportPath == "" {
		return nil
	}
	return cli.WriteFile(reportPath, rep.WriteJSON)
}

// runFleetWorker is the hidden -fleet-worker mode cmd/nmfleet spawns: drive
// the communities of one batch (computed from the shared plan, so worker and
// supervisor always agree), speak the NMW1 line protocol on stdout, write
// the batch report durably and exit with a classified code. The supervisor
// owns the checkpoint directory: existing community checkpoints are resumed
// without a -resume flag, and the fleet/batch manifests refuse a foreign or
// re-planned directory with exit 4.
func runFleetWorker(ctx context.Context, fcfg fleet.Config, batch, batchSize int, reportPath string, heartbeat time.Duration, stdout io.Writer) error {
	if fcfg.CheckpointDir == "" {
		return exitcode.AsValidation(fmt.Errorf("-fleet-worker requires -fleet-checkpoint"))
	}
	if reportPath == "" {
		return exitcode.AsValidation(fmt.Errorf("-fleet-worker requires -batch-report"))
	}
	plan, err := supervise.Plan(fcfg.Communities, batchSize)
	if err != nil {
		return exitcode.AsValidation(err)
	}
	if batch < 0 || batch >= len(plan) {
		return exitcode.AsValidation(fmt.Errorf("batch %d outside plan of %d batches", batch, len(plan)))
	}
	b := plan[batch]

	ew := supervise.NewEventWriter(stdout, batch)
	ew.Emit(supervise.WorkerEvent{Type: supervise.EventStart})
	// The slowest community's completed-day count, for heartbeat context.
	var lowDay atomic.Int64
	hbDone := make(chan struct{})
	defer close(hbDone)
	if heartbeat > 0 {
		go func() {
			t := time.NewTicker(heartbeat)
			defer t.Stop()
			for {
				select {
				case <-hbDone:
					return
				case <-t.C:
					ew.Emit(supervise.WorkerEvent{Type: supervise.EventHeartbeat, Day: int(lowDay.Load())})
				}
			}
		}()
	}

	rep, err := fleet.RunBatch(ctx, fcfg, batch, b.Start, b.Count, func(community, day int) {
		lowDay.Store(int64(day)) // the fan-out barrier makes day monotone
		ew.Emit(supervise.WorkerEvent{Type: supervise.EventDay, Community: community, Day: day})
	})
	if err == nil {
		err = rep.WriteFile(reportPath)
	}
	if err != nil {
		ew.Emit(supervise.WorkerEvent{Type: supervise.EventError, Msg: err.Error()})
		return err
	}
	// done is emitted only after the report is durable on disk: a supervisor
	// that saw done can always read the report.
	ew.Emit(supervise.WorkerEvent{Type: supervise.EventDone})
	return ew.Err()
}
