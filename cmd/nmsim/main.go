// Command nmsim runs the community simulator: it draws a synthetic
// community, bootstraps the utility's pricing process, and prints the daily
// traces (price, renewable generation, community load, grid demand) as CSV.
//
// Usage:
//
//	nmsim [-n 500] [-seed 42] [-days 7] [-sweeps 3] [-workers 0] [-jacobi 0]
//	      [-nonm] [-attack kind] [-from 16] [-to 17] [-factor 0.5]
//	      [-communities 1] [-fleet-workers 0]
//	      [-scenario file.json|preset] [-dump-scenario]
//	      [-checkpoint run.ckpt] [-checkpoint-every 10] [-resume]
//	      [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With an attack selected, every meter is compromised on the final day and
// the realized (attacked) trace is printed for that day. -attack accepts a
// bare kind (zero|scale|ramp|load-shift|invert|none, windowed by
// -from/-to/-factor) or the compact scenario form kind[:from-to[:value]]
// (e.g. delay:3, false-reading:10-15:0.8, adaptive:16-19:0.9), which
// overrides the window flags.
//
// With -communities F >= 2 (or a scenario fleet block), the simulation is a
// fleet of F independent communities of -n meters each, seeded by label
// derivation from the base seed and advanced through a shared day loop
// (-fleet-workers bounds the fan-out; it never affects results). Traces are
// written per community: to stdout as sections separated by "# community"
// comment lines, or — with -o trace.csv — to one file per community
// (trace.c000.csv, trace.c001.csv, ...). Fleet mode simulates clean
// open-loop days only; -attack, -checkpoint and -history apply to the
// single-community path.
//
// With -scenario, the world is described by a scenario spec — a preset name
// or a JSON file — and the world-config flags (-n, -seed, -days, -sweeps,
// -workers, -jacobi, -attack, -from, -to, -factor) are ignored; -nonm and the
// output flags still apply. -dump-scenario prints the effective spec as JSON
// to stdout (and its content ID to stderr) and exits. SIGINT/SIGTERM cancel
// the simulation at the next per-customer solve boundary.
//
// With -checkpoint, the simulation state is snapshotted to the given file
// every -checkpoint-every days; a killed run restarted with the same flags
// plus -resume continues from the snapshot and prints the same trace an
// uninterrupted run would have.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nmdetect/internal/attack"
	"nmdetect/internal/checkpoint"
	"nmdetect/internal/cli"
	"nmdetect/internal/community"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
	"nmdetect/internal/scenario"
	"nmdetect/internal/traceio"
)

// simState is the checkpoint payload of an open-loop simulation run.
type simState struct {
	Completed   int
	NetMetering bool
	Engine      community.EngineState
	Rows        []traceio.Row
}

func main() { cli.Main("nmsim", run) }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nmsim", flag.ContinueOnError)
	wf := scenario.NewFlags(fs, "n", "seed", "sweeps", "workers", "jacobi", "active-tol", "shards",
		"communities", "scenario", "dump-scenario")
	var (
		days     = fs.Int("days", 7, "days to simulate")
		noNM     = fs.Bool("nonm", false, "disable net metering in the world model")
		atkStr   = fs.String("attack", "none", "attack on the final day: a kind (zero|scale|ramp|load-shift|invert|none) windowed by -from/-to/-factor, or the compact form kind[:from-to[:value]] (delay:3, false-reading:10-15:0.8, adaptive:16-19:0.9)")
		from     = fs.Int("from", 16, "attack window start slot")
		to       = fs.Int("to", 17, "attack window end slot")
		factor   = fs.Float64("factor", 0.5, "scale attack factor")
		fleetW   = fs.Int("fleet-workers", 0, "fleet-level worker budget (0 = all cores; execution-only, never affects results)")
		out      = fs.String("o", "", "write the trace to this file instead of stdout")
		histFile = fs.String("history", "", "also write the forecaster-training history CSV here")
		ckpt     = fs.String("checkpoint", "", "checkpoint file for the simulation (empty = no checkpointing)")
		ckptK    = fs.Int("checkpoint-every", 10, "days between checkpoints")
		resume   = fs.Bool("resume", false, "resume from an existing checkpoint instead of failing on one")
		obsCfg   = cli.ObsFlags(fs)
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	// nmsim's -days is SimDays, and its -attack none means "no campaign at
	// all", which the spec expresses as attack kind "none" (identity payload).
	spec, err := wf.Spec(func(s *scenario.Spec) error {
		s.Horizon.SimDays = *days
		if !strings.ContainsRune(*atkStr, ':') {
			s.Attack = scenario.Attack{Kind: *atkStr, From: *from, To: *to, Factor: *factor}
			return nil
		}
		ab, err := scenario.ParseAttack(*atkStr)
		s.Attack = ab
		return err
	})
	if err != nil {
		return exitcode.AsValidation(err)
	}
	if wf.Dump {
		return spec.Dump(stdout, os.Stderr)
	}
	campaignWanted := spec.Attack.Kind != "none"

	obsCfg.Cmd, obsCfg.ScenarioID, obsCfg.Seed, obsCfg.Workers = "nmsim", spec.ID(), spec.Seed, spec.Game.Workers
	if err := obs.Setup(*obsCfg); err != nil {
		return err
	}

	netMetering := !*noNM
	if spec.FleetCommunities() > 1 {
		if campaignWanted || *ckpt != "" || *resume || *histFile != "" {
			return exitcode.AsValidation(fmt.Errorf("fleet mode (-communities >= 2) simulates clean open-loop days; -attack, -checkpoint, -resume and -history need a single community"))
		}
		return runFleetSim(ctx, spec, netMetering, *fleetW, *out, stdout)
	}

	engine, err := spec.NewEngine()
	if err != nil {
		return err
	}

	simDays := spec.Horizon.SimDays
	if *ckptK < 1 {
		*ckptK = 1
	}
	if *resume && *ckpt == "" {
		return exitcode.AsValidation(fmt.Errorf("-resume requires -checkpoint"))
	}
	startDay := 0
	var rows []traceio.Row
	if *ckpt != "" && checkpoint.Exists(*ckpt) {
		if !*resume {
			return exitcode.AsValidation(fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove it", *ckpt))
		}
		var st simState
		if err := checkpoint.Load(*ckpt, "sim-run", &st); err != nil {
			return err
		}
		if st.NetMetering != netMetering {
			return fmt.Errorf("checkpoint was taken with net metering %v, resuming with %v: %w", st.NetMetering, netMetering, checkpoint.ErrIncompatible)
		}
		if st.Completed > simDays {
			return fmt.Errorf("checkpoint already holds %d days, requested only %d", st.Completed, simDays)
		}
		if err := engine.RestoreState(st.Engine); err != nil {
			return err
		}
		startDay, rows = st.Completed, st.Rows
		fmt.Fprintf(os.Stderr, "nmsim: resumed at day %d\n", startDay)
	}
	for d := startDay; d < simDays; d++ {
		env, err := engine.PrepareDay(ctx, netMetering)
		if err != nil {
			return err
		}
		var camp *attack.Campaign
		if campaignWanted && d == simDays-1 {
			atk, err := spec.BuildAttack()
			if err != nil {
				return err
			}
			camp, err = attack.NewCampaign(spec.N, 0, 1, 1, atk)
			if err != nil {
				return err
			}
			camp.HackNow(spec.N, rng.New(spec.Seed).Derive("nmsim-attack"))
		}
		trace, err := engine.SimulateDay(ctx, env, camp, netMetering, nil)
		if err != nil {
			return err
		}
		rows = appendDay(rows, d, env, trace)
		if *ckpt != "" && ((d+1)%*ckptK == 0 || d+1 == simDays) {
			st := simState{Completed: d + 1, NetMetering: netMetering, Engine: engine.State(), Rows: rows}
			if err := checkpoint.Save(*ckpt, "sim-run", &st); err != nil {
				return err
			}
		}
	}

	writeTrace := func(w io.Writer) error { return traceio.WriteTrace(w, rows) }
	if *out == "" {
		err = writeTrace(stdout)
	} else {
		err = cli.WriteFile(*out, writeTrace)
	}
	if err != nil || *histFile == "" {
		return err
	}
	return cli.WriteFile(*histFile, func(w io.Writer) error { return traceio.WriteHistory(w, engine.History()) })
}

// appendDay appends one simulated day's 24 trace rows.
func appendDay(rows []traceio.Row, d int, env *community.DayEnvironment, trace *community.DayTrace) []traceio.Row {
	for h := 0; h < 24; h++ {
		rows = append(rows, traceio.Row{
			Day:        d,
			Slot:       h,
			Price:      env.Published[h],
			Renewable:  env.Renewable[h],
			Load:       trace.Load[h],
			GridDemand: trace.GridDemand[h],
			Hacked:     trace.TrueHacked[h],
		})
	}
	return rows
}

// runFleetSim drives a fleet of engines through the shared open-loop day
// loop and writes one trace per community.
func runFleetSim(ctx context.Context, spec scenario.Spec, netMetering bool, workers int, out string, stdout io.Writer) error {
	f := spec.FleetCommunities()
	engines := make([]*community.Engine, f)
	for i := range engines {
		eng, err := spec.CommunitySpec(i).NewEngine()
		if err != nil {
			return fmt.Errorf("community %d: %w", i, err)
		}
		engines[i] = eng
	}
	rows := make([][]traceio.Row, f)
	for d := 0; d < spec.Horizon.SimDays; d++ {
		res, err := fleet.SimDay(ctx, workers, engines, netMetering)
		if err != nil {
			return err
		}
		for i, r := range res {
			rows[i] = appendDay(rows[i], d, r.Env, r.Trace)
		}
	}
	if out == "" {
		for i := range rows {
			fmt.Fprintf(stdout, "# community %03d seed=%d\n", i, fleet.CommunitySeed(spec.Seed, i))
			if err := traceio.WriteTrace(stdout, rows[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range rows {
		if err := cli.WriteFile(communityOut(out, i), func(w io.Writer) error { return traceio.WriteTrace(w, rows[i]) }); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "nmsim: wrote %d community traces (%s .. %s)\n",
		f, communityOut(out, 0), communityOut(out, f-1))
	return nil
}

// communityOut inserts the community index before the extension:
// trace.csv -> trace.c007.csv.
func communityOut(out string, i int) string {
	ext := filepath.Ext(out)
	return fmt.Sprintf("%s.c%03d%s", strings.TrimSuffix(out, ext), i, ext)
}
