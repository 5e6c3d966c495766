// Command perfbench is the repository's benchmark. It drives the detector
// through the entry points its users drive — core.NewSystem and the runner
// day loop (batch), fleet.Build and fleet.Drive (fleet), and the nmserve
// daemon over loopback HTTP (serve) — checks every output it measures, and
// prints the end-to-end metrics (untraced run) or the per-layer breakdown
// (traced run, read from the obs event stream).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload batch|fleet|serve|all --seed 1 --seconds 10 --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything before it — the
// environment record, scenario content IDs, tail sample counts and a metric
// table — is for people. See perfbench/README.md for the workload → layer →
// metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// DefaultSeed and HeldOutSeed are the recorded workload seeds: figures are
// quoted at the default seed, and a claimed gain must also hold at the
// held-out one, which no tuning looked at.
const (
	DefaultSeed = 1
	HeldOutSeed = 1009
)

// config is what a workload run receives.
type config struct {
	seed    uint64
	budget  time.Duration // how long batch and fleet monitor; serve does a fixed amount of work
	trace   bool
	nmserve string // path of the built nmserve binary
	work    string // per-run scratch directory, removed afterwards
	nproc   int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run measured.
type outcome struct {
	scenarios map[string]string // label → scenario content ID
	ops       tally
	metrics   map[string]float64
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{scenarios: map[string]string{}, metrics: map[string]float64{}}
}

func (o *outcome) note(format string, a ...any) { o.notes = append(o.notes, fmt.Sprintf(format, a...)) }

// check records one output check as an operation: failed when ok is false.
func (o *outcome) check(ok bool, format string, a ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, a...)
	}
	o.ops.add(err)
}

// steps records n completed operations and, when err is non-nil, one
// failed one; it reports whether the run must stop there.
func (o *outcome) steps(n int, err error) bool {
	for i := 0; i < n; i++ {
		o.ops.add(nil)
	}
	if err != nil {
		o.ops.add(err)
	}
	return err != nil
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*outcome, error)
}

var workloads = []workload{
	{"batch", runBatch},
	{"fleet", runFleet},
	{"serve", runServe},
}

// endToEnd and perLayer are the reported metrics with their units, in
// report order. BENCHMARK.json names exactly these (checked by a test).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"meter_days_per_s", "meter-day/s"},
	{"readings_per_s", "reading/s"},
	{"day_p50_ms", "ms"},
	{"day_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"core.bootstrap_s", "s"},
	{"core.learn_baselines_s", "s"},
	{"core.calibrate_s", "s"},
	{"core.train_forecasters_s", "s"},
	{"core.solve_policy_s", "s"},
	{"pomdp.backups", "count"},
	{"svr.smo_sweeps", "count"},
	{"engine.monitor_day_ms", "ms"},
	{"engine.prepare_day_ms", "ms"},
	{"engine.simulate_day_ms", "ms"},
	{"loadpred.expected_ms", "ms"},
	{"game.solve_ms", "ms"},
	{"game.solves", "count/day"},
	{"game.sweeps", "count/day"},
	{"game.watchdog_retries", "count"},
	{"game.outer_self_ms", "ms"},
	{"game.outer_sweeps", "count/day"},
	{"ceopt.generations_per_solve", "count/solve"},
	{"ceopt.watchdog_retries", "count"},
	{"parallel.occupancy_mean", "workers"},
	{"fleet.build_s", "s"},
	{"fleet.monitor_s", "s"},
	{"checkpoint.saves", "count"},
	{"checkpoint.save_ms_mean", "ms"},
	{"checkpoint.bytes_last", "bytes"},
	{"serve.request_ms_mean", "ms"},
	{"serve.client_wait_ms", "ms"},
	{"serve.records_ms", "ms"},
	{"detect.accuracy", "frac"},
	{"detect.inspections", "count"},
	{"detect.realized_par", "ratio"},
	{"trace.overhead_frac", "frac"},
	{"trace.setup_gap_frac", "frac"},
	{"trace.monitor_gap_frac", "frac"},
}

type metricDef struct{ name, unit string }

// result is the machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: batch, fleet, serve or all")
		seed    = flag.Uint64("seed", DefaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", DefaultSeed, HeldOutSeed))
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		traceN  = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		root    = flag.String("root", ".", "checkout root (holds the module sources and .bench_build)")
		nmserve = flag.String("nmserve", "", "path of the built nmserve binary (serve workload)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceN, *root, *nmserve); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traceN int, root, nmserve string) error {
	if traceN != 0 && traceN != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", traceN)
	}
	if !(seconds > 0) || math.IsInf(seconds, 0) {
		return fmt.Errorf("-seconds %v: want a positive number", seconds)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if name == "all" {
		return runAll(seed, seconds, traceN)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("-workload %q: want batch, fleet, serve or all", name)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	work, err := os.MkdirTemp(scratch, "run-"+name+"-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(work)
	env := environment(root)
	cfg := config{
		seed: seed, budget: time.Duration(seconds * float64(time.Second)), trace: traceN == 1,
		nmserve: nmserve, work: work, nproc: env.Nproc,
	}
	out, err := wl.run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("workload %s: %w", name, err)
	}
	return report(name, cfg, env, out)
}

// report prints the human-readable record and then the result line.
func report(name string, cfg config, env Env, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.ops.failed == 0 && out.ops.attempted > 0,
		Attempted: out.ops.attempted,
		Failed:    out.ops.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if res.Correct {
				return fmt.Errorf("workload %s did not produce a finite %s (%v)", name, d.name, v)
			}
			v = 0 // a failed run stopped early; its metrics are not read
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	record := struct {
		Workload  string            `json:"workload"`
		Seed      uint64            `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Trace     bool              `json:"trace"`
		Env       Env               `json:"env"`
		Scenarios map[string]string `json:"scenarios"`
		Notes     []string          `json:"notes,omitempty"`
		Errors    []string          `json:"errors,omitempty"`
	}{name, cfg.seed, cfg.budget.Seconds(), cfg.trace, env, out.scenarios, out.notes, out.ops.errs}
	rec, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Println("record", string(rec))
	fmt.Printf("%-30s %16s  %s\n", name+" metric", "value", "unit")
	for _, d := range defs {
		fmt.Printf("%-30s %16.6g  %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%-30s %16d / %d (%.2f%%)\n", "failed / attempted", out.ops.failed, out.ops.attempted, 100*out.ops.failedFrac())
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in a fresh process of its own (peak RSS is
// per process), echoing each one's report, and ends with one result line
// whose metrics are keyed "<workload>/<metric>".
func runAll(seed uint64, seconds float64, traceN int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range workloads {
		args := append(forwardedFlags(), "-workload", wl.name)
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return fmt.Errorf("workload %s: %w", wl.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("workload %s result line: %w", wl.name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[wl.name+"/"+k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// forwardedFlags repeats every flag set on the command line except
// -workload, for the per-workload child processes of -workload all.
func forwardedFlags() []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	return args
}

var errNoWork = errors.New("no operation completed in the measured phase")
