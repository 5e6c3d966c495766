// Command nmrepro regenerates every figure and table of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	nmrepro [-experiment all|fig3|fig4|fig5|fig6|table1|ablations|attacks|fleet] [-n 500]
//	        [-seed 42] [-boot 6] [-sweeps 3] [-days 2] [-workers 0] [-jacobi 0]
//	        [-solver pbvi|qmdp|threshold] [-csv DIR]
//	        [-communities 1] [-fleet-workers 0]
//	        [-scenario file.json|preset] [-dump-scenario]
//	        [-checkpoint run.ckpt] [-resume]
//	        [-report out.md] [-json out.json]
//	        [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The "ablations" experiment runs the DESIGN.md §5 studies (policy solver,
// forecast kernel, PV-forecast noise, flag threshold, sell-back divisor).
//
// The "attacks" experiment runs the detection-accuracy-vs-archetype sweep
// (DESIGN.md §16): the monitored window is repeated under every attack
// archetype — the paper's pricing attacks plus false readings, fabricated
// DSM shifts, ramp/delay variants, coordinated strike timing and the
// adaptive attacker tuned against the flagger threshold — and the per-
// archetype accuracy, PAR, inspections and detection delay are tabulated;
// -json writes the sweep as JSON.
//
// The "fleet" experiment runs the scenario as a multi-community fleet
// (-communities F >= 2 or a scenario fleet block): F independent
// communities of -n meters monitored with the net-metering-aware detector
// through the shared day loop, rendered as a per-community table plus
// rollup; -json writes the fleet report. -fleet-workers bounds the fleet
// fan-out and never affects results.
//
// With -scenario, the world is described by a scenario spec — a preset name
// (fig3, fig4, fig5, fig6, table1) or a JSON file — and the per-knob flags
// (-n, -seed, -boot, -sweeps, -days, -solver, -workers, -jacobi) are
// ignored. -dump-scenario prints the effective spec as JSON to stdout (and
// its content ID to stderr) and exits, which is how a flag-built run is
// turned into a reusable scenario file.
//
// With -csv, the raw series behind each figure are also written as CSV files
// into DIR for external plotting. SIGINT/SIGTERM cancel the run at the next
// sweep/iteration boundary.
//
// With -checkpoint, each completed experiment's results are snapshotted to
// the given file; a killed run restarted with the same flags plus -resume
// skips the recorded experiments (re-rendering their output from the
// snapshot) and computes only the missing ones. The snapshot is bound to the
// scenario's content ID, so resuming under a different spec fails loudly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/cli"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/experiments"
	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
	"nmdetect/internal/timeseries"
)

// reproState checkpoints completed experiment results. Each experiment runs
// on its own freshly built system, so experiment granularity preserves
// bit-for-bit identity with an uninterrupted run.
type reproState struct {
	// ScenarioID guards against resuming under a different world.
	ScenarioID string
	F3, F4     *experiments.PredictionResult
	F5         *experiments.Fig5Result
	F6         *experiments.Fig6Result
	T1         *experiments.Table1Result
}

func main() { cli.Main("nmrepro", run) }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nmrepro", flag.ContinueOnError)
	wf := scenario.NewFlags(fs, "n", "seed", "boot", "days", "sweeps", "workers", "jacobi", "active-tol", "shards",
		"solver", "attack", "strike-slots", "communities", "scenario", "dump-scenario")
	var (
		experiment = fs.String("experiment", "all", "fig3|fig4|fig5|fig6|table1|ablations|attacks|fleet|all")
		fleetW     = fs.Int("fleet-workers", 0, "fleet-level worker budget (0 = all cores; execution-only, never affects results)")
		csvDir     = fs.String("csv", "", "directory for CSV output (optional)")
		reportPath = fs.String("report", "", "also write a markdown report here (requires -experiment all)")
		jsonPath   = fs.String("json", "", "also write the report as JSON here (requires -experiment all, attacks or fleet)")
		ckpt       = fs.String("checkpoint", "", "checkpoint file for experiment results (empty = no checkpointing)")
		resume     = fs.Bool("resume", false, "resume from an existing checkpoint instead of failing on one")
		obsCfg     = cli.ObsFlags(fs)
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
	if err := validateExperiment(*experiment, *reportPath, *jsonPath, *ckpt, *resume, spec); err != nil {
		return exitcode.AsValidation(err)
	}
	cfg := spec.ExperimentsConfig()
	if err := cfg.Validate(); err != nil {
		return exitcode.AsValidation(err)
	}

	obsCfg.Cmd, obsCfg.ScenarioID, obsCfg.Seed, obsCfg.Workers = "nmrepro", spec.ID(), spec.Seed, spec.Game.Workers
	if err := obs.Setup(*obsCfg); err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	switch *experiment {
	case "attacks":
		return runAttackSweep(ctx, cfg, *jsonPath, stdout)
	case "fleet":
		return runFleetRepro(ctx, spec, cfg, *fleetW, *jsonPath, stdout)
	}

	state := reproState{ScenarioID: spec.ID()}
	if *ckpt != "" && checkpoint.Exists(*ckpt) {
		if !*resume {
			return exitcode.AsValidation(fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove it", *ckpt))
		}
		if err := checkpoint.Load(*ckpt, "repro-run", &state); err != nil {
			return err
		}
		if state.ScenarioID != spec.ID() {
			return fmt.Errorf("checkpoint was taken for scenario %s, current spec is %s: %w", state.ScenarioID, spec.ID(), checkpoint.ErrIncompatible)
		}
	}
	if *experiment == "ablations" {
		return runAblations(ctx, cfg, stdout)
	}
	// Each figure renders from the checkpoint when it holds the result, and
	// is computed (then checkpointed) otherwise.
	steps := []struct {
		id, title string
		missing   bool
		compute   func() error
		render    func() error
	}{
		{"fig3", "Figure 3: prediction WITHOUT considering net metering", state.F3 == nil,
			func() (err error) { state.F3, err = experiments.Fig3(ctx, cfg); return err },
			func() error { return renderPrediction(stdout, state.F3, "fig3", *csvDir, 1.4700) }},
		{"fig4", "Figure 4: prediction considering net metering", state.F4 == nil,
			func() (err error) { state.F4, err = experiments.Fig4(ctx, cfg); return err },
			func() error { return renderPrediction(stdout, state.F4, "fig4", *csvDir, 1.3986) }},
		{"fig5", "Figure 5: zero-price cyberattack", state.F5 == nil,
			func() (err error) { state.F5, err = experiments.Fig5(ctx, cfg); return err },
			func() error { return renderFig5(stdout, state.F5, *csvDir) }},
		{"fig6", "Figure 6: 48h observation accuracy", state.F6 == nil,
			func() (err error) { state.F6, err = experiments.Fig6(ctx, cfg); return err },
			func() error { return renderFig6(stdout, state.F6, *csvDir) }},
		{"table1", "Table 1: detection comparison", state.T1 == nil,
			func() (err error) { state.T1, err = experiments.Table1(ctx, cfg); return err },
			func() error { renderTable1(stdout, state.T1); return nil }},
	}
	for _, st := range steps {
		if *experiment != "all" && *experiment != st.id {
			continue
		}
		fmt.Fprintf(stdout, "== %s ==\n", st.title)
		if st.missing {
			if err := st.compute(); err != nil {
				return err
			}
			if *ckpt != "" {
				if err := checkpoint.Save(*ckpt, "repro-run", &state); err != nil {
					return err
				}
			}
		}
		if err := st.render(); err != nil {
			return err
		}
	}
	if *experiment != "all" {
		return nil
	}

	f3, f4, f5, f6, t1 := state.F3, state.F4, state.F5, state.F6, state.T1
	fmt.Fprintln(stdout, "== Headline comparison against the paper ==")
	h := experiments.ComputeHeadline(f3, f4, f5, f6, t1)
	fmt.Fprintln(stdout, h)

	rep := &experiments.Report{
		Config: cfg, Fig3: f3, Fig4: f4, Fig5: f5, Fig6: f6, Table1: t1,
		Headline: h, Generated: time.Now(),
	}
	if err := writeReport(stdout, "report", *reportPath, rep.Render); err != nil {
		return err
	}
	if err := writeReport(stdout, "JSON report", *jsonPath, rep.WriteJSON); err != nil {
		return err
	}

	fmt.Fprintln(stdout)
	experiments.RenderComparisons(stdout, []experiments.Comparison{
		{ID: "fig3", Quantity: "predicted-load PAR (NM-blind)", Paper: 1.4700, Measured: f3.PAR},
		{ID: "fig4", Quantity: "predicted-load PAR (NM-aware)", Paper: 1.3986, Measured: f4.PAR},
		{ID: "fig5", Quantity: "attacked-load PAR", Paper: 1.9037, Measured: f5.PAR},
		{ID: "fig6", Quantity: "observation accuracy (aware)", Paper: 0.9514, Measured: f6.AwareAccuracy},
		{ID: "fig6", Quantity: "observation accuracy (blind)", Paper: 0.6595, Measured: f6.BlindAccuracy},
		{ID: "table1", Quantity: "PAR no detection", Paper: 1.6509, Measured: t1.NoDetection.PAR},
		{ID: "table1", Quantity: "PAR NM-blind detection", Paper: 1.5422, Measured: t1.Blind.PAR},
		{ID: "table1", Quantity: "PAR NM-aware detection", Paper: 1.4112, Measured: t1.Aware.PAR},
		{ID: "table1", Quantity: "normalized labor (aware)", Paper: 1.0067, Measured: t1.Aware.LaborCost},
	})
	return nil
}

// validateExperiment checks the flag combination before any work starts.
func validateExperiment(experiment, reportPath, jsonPath, ckpt string, resume bool, spec scenario.Spec) error {
	switch experiment {
	case "all", "fig3", "fig4", "fig5", "fig6", "table1", "ablations", "attacks", "fleet":
	default:
		return fmt.Errorf("unknown experiment %q (want fig3|fig4|fig5|fig6|table1|ablations|attacks|fleet|all)", experiment)
	}
	switch {
	case reportPath != "" && experiment != "all":
		return fmt.Errorf("-report requires -experiment all")
	case jsonPath != "" && experiment != "all" && experiment != "attacks" && experiment != "fleet":
		return fmt.Errorf("-json requires -experiment all, attacks or fleet")
	case resume && ckpt == "":
		return fmt.Errorf("-resume requires -checkpoint")
	case experiment == "attacks" && ckpt != "":
		return fmt.Errorf("-experiment attacks keeps no repro checkpoint")
	case experiment == "fleet" && ckpt != "":
		return fmt.Errorf("-experiment fleet keeps no repro checkpoint; use nmdetect -fleet-checkpoint for resumable fleet runs")
	case experiment == "fleet" && spec.FleetCommunities() < 2:
		return fmt.Errorf("-experiment fleet needs a fleet: pass -communities >= 2 or a scenario fleet block")
	}
	return nil
}

// runFleetRepro runs the multi-community fleet experiment: the scenario's
// world replicated across the fleet width, monitored with the aware
// detector, aggregated per community plus rollup.
func runFleetRepro(ctx context.Context, spec scenario.Spec, cfg experiments.Config, fleetWorkers int, jsonPath string, stdout io.Writer) error {
	communities := spec.FleetCommunities()
	fmt.Fprintf(stdout, "== Fleet: %d communities x %d meters, %d monitored days ==\n",
		communities, cfg.N, cfg.MonitorDays)
	rep, err := experiments.Fleet(ctx, cfg, communities, fleet.DetectorAware, fleetWorkers)
	if err != nil {
		return err
	}
	if err := rep.Render(stdout); err != nil {
		return err
	}
	return writeReport(stdout, "JSON fleet report", jsonPath, rep.WriteJSON)
}

// runAttackSweep runs the detection-accuracy-vs-archetype sweep with the
// NM-aware detector enforcing.
func runAttackSweep(ctx context.Context, cfg experiments.Config, jsonPath string, stdout io.Writer) error {
	fmt.Fprintf(stdout, "== Attack archetypes: N=%d, %d monitored days, NM-aware detector ==\n",
		cfg.N, cfg.MonitorDays)
	sweep, err := experiments.AttackSweep(ctx, cfg)
	if err != nil {
		return err
	}
	if err := sweep.Render(stdout); err != nil {
		return err
	}
	return writeReport(stdout, "JSON attack-sweep report", jsonPath, sweep.WriteJSON)
}

func runAblations(ctx context.Context, cfg experiments.Config, stdout io.Writer) error {
	fmt.Fprintln(stdout, "== Ablation: POMDP policy solver ==")
	solverRows, err := experiments.AblationSolver(ctx, cfg)
	if err != nil {
		return err
	}
	experiments.RenderSolverAblation(stdout, solverRows)

	fmt.Fprintln(stdout, "\n== Ablation: forecaster kernel ==")
	kernelRows, err := experiments.AblationKernel(ctx, cfg)
	if err != nil {
		return err
	}
	experiments.RenderKernelAblation(stdout, kernelRows)

	fmt.Fprintln(stdout, "\n== Ablation: PV-forecast noise vs channel quality ==")
	noiseRows, err := experiments.AblationForecastNoise(ctx, cfg, []float64{0, 0.02, 0.05, 0.1, 0.2})
	if err != nil {
		return err
	}
	experiments.RenderForecastNoiseAblation(stdout, noiseRows)

	fmt.Fprintln(stdout, "\n== Ablation: flag threshold τ ==")
	tauRows, err := experiments.AblationTau(ctx, cfg, []float64{0.25, 0.5, 1.0, 1.5, 2.5})
	if err != nil {
		return err
	}
	experiments.RenderTauAblation(stdout, tauRows)

	fmt.Fprintln(stdout, "\n== Ablation: net-metering sell-back divisor W ==")
	sellRows, err := experiments.AblationSellBack(ctx, cfg, []float64{1, 1.5, 2, 3, 5})
	if err != nil {
		return err
	}
	experiments.RenderSellBackAblation(stdout, sellRows)

	fmt.Fprintln(stdout, "\n== Ablation: attack payloads ([8]'s PAR and bill attacks) ==")
	atkRows, err := experiments.AblationAttacks(ctx, cfg)
	if err != nil {
		return err
	}
	experiments.RenderAttackAblation(stdout, atkRows)

	fmt.Fprintln(stdout, "\n== Ablation: zero-window position (the attacker's optimization) ==")
	winRows, err := experiments.AblationAttackWindow(ctx, cfg, []int{2, 8, 12, 16, 20})
	if err != nil {
		return err
	}
	experiments.RenderWindowSweep(stdout, winRows)

	fmt.Fprintln(stdout, "\n== Ablation: battery storage contribution ==")
	battRows, err := experiments.AblationBattery(ctx, cfg)
	if err != nil {
		return err
	}
	experiments.RenderBatteryAblation(stdout, battRows)

	fmt.Fprintln(stdout, "\n== Extension: meter-side price filter (package mitigate) ==")
	mit, err := experiments.Mitigation(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "clean PAR %.4f | attacked %.4f | filtered %.4f (%d slots clamped)\n",
		mit.CleanPAR, mit.AttackedPAR, mit.FilteredPAR, mit.ClampedSlots)
	return nil
}

func renderFig5(stdout io.Writer, f5 *experiments.Fig5Result, csvDir string) error {
	if err := experiments.RenderChart(stdout, "guideline price ($/unit)",
		[]string{"published", "manipulated"}, f5.Published, f5.Manipulated); err != nil {
		return err
	}
	if err := experiments.RenderChart(stdout, "attacked community load (kW)",
		[]string{"load"}, f5.AttackedLoad); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "attacked PAR = %.4f (paper 1.9037); peak at slot %d (paper 16-17)\n\n", f5.PAR, f5.PeakSlot)
	return saveCSV(csvDir, "fig5.csv", []string{"slot", "published", "manipulated", "load"},
		f5.Published, f5.Manipulated, f5.AttackedLoad)
}

func renderFig6(stdout io.Writer, f6 *experiments.Fig6Result, csvDir string) error {
	aware, blind := timeseries.Series(f6.AwareBySlot), timeseries.Series(f6.BlindBySlot)
	if err := experiments.RenderChart(stdout, "cumulative observation accuracy",
		[]string{"net-metering-aware", "nm-blind"}, aware, blind); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "aware accuracy = %.2f%% (paper 95.14%%); blind = %.2f%% (paper 65.95%%)\n\n",
		100*f6.AwareAccuracy, 100*f6.BlindAccuracy)
	return saveCSV(csvDir, "fig6.csv", []string{"slot", "aware", "blind"}, aware, blind)
}

func renderTable1(stdout io.Writer, t1 *experiments.Table1Result) {
	fmt.Fprintf(stdout, "%-24s %10s %12s %12s\n", "technique", "PAR", "inspections", "labor(norm)")
	for _, row := range []experiments.Table1Row{t1.NoDetection, t1.Blind, t1.Aware} {
		fmt.Fprintf(stdout, "%-24s %10.4f %12d %12.4f\n", row.Technique, row.PAR, row.Inspections, row.LaborCost)
	}
	fmt.Fprintf(stdout, "(paper: 1.6509 / 1.5422 / 1.4112; labor 1 vs 1.0067)\n\n")
}

func renderPrediction(stdout io.Writer, r *experiments.PredictionResult, id, csvDir string, paperPAR float64) error {
	if err := experiments.RenderChart(stdout, "guideline price ($/unit)",
		[]string{"received", "predicted"}, r.Received, r.Predicted); err != nil {
		return err
	}
	if err := experiments.RenderChart(stdout, "predicted community load (kW)",
		[]string{"load"}, r.PredictedLoad); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "predicted-load PAR = %.4f (paper %.4f); price RMSE = %.5f\n\n", r.PAR, paperPAR, r.PriceRMSE)
	return saveCSV(csvDir, id+".csv", []string{"slot", "received", "predicted", "load"},
		r.Received, r.Predicted, r.PredictedLoad)
}

// saveCSV writes one figure's series into dir; an empty dir writes nothing.
func saveCSV(dir, name string, header []string, series ...timeseries.Series) error {
	if dir == "" {
		return nil
	}
	return cli.WriteFile(filepath.Join(dir, name), func(w io.Writer) error {
		return experiments.WriteCSV(w, header, series...)
	})
}

// writeReport writes an optional report file (an empty path writes
// nothing) and notes it on stdout.
func writeReport(stdout io.Writer, what, path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := cli.WriteFile(path, write); err != nil {
		return err
	}
	_, err := fmt.Fprintf(stdout, "\n%s written to %s\n", what, path)
	return err
}
