package scenario

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Flags is the command-line form of a world: the knobs nmsim, nmdetect,
// nmrepro and nmfleet expose as flags, lowered into a Spec by Flags.Spec.
// A flag whose name, default or meaning differs between commands (nmsim's
// -days and bare-kind -attack, nmfleet's -communities) is not registered
// here: the command binds it itself, to a field below or in Spec's edit
// hook.
type Flags struct {
	N           int
	Seed        uint64
	Boot        int // bootstrap days
	Days        int // monitored days
	Sweeps      int
	Workers     int
	Jacobi      int
	ActiveTol   float64
	Shards      int
	Solver      string
	Attack      string // compact ParseAttack form; "" keeps Default's
	StrikeSlots string // ParseStrikeSlots form
	Communities int
	Scenario    string // preset name or JSON file; replaces the flag-built spec
	Dump        bool   // -dump-scenario: print the effective spec and exit
}

// NewFlags registers the named world flags on fs and returns the values they
// fill. Every knob starts at Default(500, 42)'s value, which is also its
// flag's default, so a knob the command does not register lowers to
// Default's value.
func NewFlags(fs *flag.FlagSet, names ...string) *Flags {
	d := Default(500, 42)
	f := &Flags{
		N: d.N, Seed: d.Seed,
		Boot: d.Horizon.BootstrapDays, Days: d.Horizon.MonitorDays,
		Sweeps: d.Game.Sweeps, Solver: d.Detector.Solver, Communities: 1,
	}
	all := flag.NewFlagSet("world", flag.ContinueOnError)
	all.IntVar(&f.N, "n", f.N, "community size")
	all.Uint64Var(&f.Seed, "seed", f.Seed, "seed")
	all.IntVar(&f.Boot, "boot", f.Boot, "bootstrap days")
	all.IntVar(&f.Days, "days", f.Days, "monitoring days")
	all.IntVar(&f.Sweeps, "sweeps", f.Sweeps, "game best-response sweeps")
	all.IntVar(&f.Workers, "workers", f.Workers, "worker budget (0 = all cores, 1 = sequential)")
	all.IntVar(&f.Jacobi, "jacobi", f.Jacobi, "game block-Jacobi size (0 = sequential Gauss-Seidel)")
	all.Float64Var(&f.ActiveTol, "active-tol", f.ActiveTol, "game active-set tolerance in kW (0 = re-solve every customer every sweep)")
	all.IntVar(&f.Shards, "shards", f.Shards, "hierarchical-solve shard count (<= 1 = flat solver, the reference semantics)")
	all.StringVar(&f.Solver, "solver", f.Solver, "POMDP solver: pbvi|qmdp|threshold")
	all.StringVar(&f.Attack, "attack", f.Attack, "attack payload override: kind[:from-to[:value]], e.g. zero:16-17, scale:16-19:0.5, delay:3, false-reading:10-15:0.8, adaptive, invert (ignored with -scenario)")
	all.StringVar(&f.StrikeSlots, "strike-slots", f.StrikeSlots, "coordinated strike slots, comma-separated day hours e.g. 2,8,14,20 (ignored with -scenario)")
	all.IntVar(&f.Communities, "communities", f.Communities, "fleet width: independent communities of -n meters each (>= 2 selects the fleet path)")
	all.StringVar(&f.Scenario, "scenario", f.Scenario, "scenario preset name or JSON file (overrides the world-config flags)")
	all.BoolVar(&f.Dump, "dump-scenario", f.Dump, "print the effective scenario spec as JSON and exit")
	for _, name := range names {
		w := all.Lookup(name)
		if w == nil {
			panic("scenario: no world flag -" + name) // lint:allow-panic — programmer error: names are literals at each call site, pinned by the commands' flag tests
		}
		fs.Var(w.Value, name, w.Usage)
	}
	return f
}

// Spec lowers the flags into a Spec: Default(N, Seed) with every knob
// applied, then edit (if non-nil) for the command's own knobs. A -scenario
// replaces the flag-built spec whole, but the attack flags are still parsed
// first, so a malformed one fails either way. The result is validated; every
// error is a flag error, which callers classify as validation.
func (f *Flags) Spec(edit func(*Spec) error) (Spec, error) {
	spec := Default(f.N, f.Seed)
	spec.Horizon.BootstrapDays = f.Boot
	spec.Horizon.MonitorDays = f.Days
	spec.Game.Sweeps = f.Sweeps
	spec.Game.Workers = f.Workers
	spec.Game.JacobiBlock = f.Jacobi
	spec.Game.ActiveTol = f.ActiveTol
	spec.Game.Shards = f.Shards
	spec.Detector.Solver = f.Solver
	if f.Attack != "" {
		ab, err := ParseAttack(f.Attack)
		if err != nil {
			return Spec{}, err
		}
		spec.Attack = ab
	}
	ss, err := ParseStrikeSlots(f.StrikeSlots)
	if err != nil {
		return Spec{}, err
	}
	spec.Campaign.StrikeSlots = ss
	if f.Communities > 1 {
		spec.Fleet = &Fleet{Communities: f.Communities}
	}
	if edit != nil {
		if err := edit(&spec); err != nil {
			return Spec{}, err
		}
	}
	if f.Scenario != "" {
		if spec, err = Resolve(f.Scenario); err != nil {
			return Spec{}, err
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Dump writes the -dump-scenario output: the spec as JSON to stdout and its
// content ID to stderr.
func (s Spec) Dump(stdout, stderr io.Writer) error {
	if err := s.Save(stdout); err != nil {
		return err
	}
	_, err := fmt.Fprintln(stderr, s.ID())
	return err
}

// ParseAttack parses the compact command-line form of an attack block:
//
//	kind[:from-to[:value]]
//
// where the window "from-to" applies to the windowed kinds (From > To wraps
// past midnight) and value is the kind's scalar — Factor for scale, ramp
// and load-shift, MagnitudeKW for false-reading, Margin for adaptive. The
// delay kind takes its signed hour count in place of the window
// ("delay:3"); "invert" and "none" take nothing. Omitted windows default to
// the paper's 16-17 attack window. Examples:
//
//	zero:16-17  scale:16-19:0.5  ramp:12-20:0.3  load-shift:10-14:0.4
//	false-reading:10-15:0.8  delay:3  adaptive:16-19:0.9  invert  none
//
// The returned block still goes through Spec.Validate, which owns the range
// checks.
func ParseAttack(s string) (Attack, error) {
	parts := strings.Split(s, ":")
	a := Attack{Kind: parts[0], From: 16, To: 17}
	switch a.Kind {
	case "invert", "none":
		if len(parts) > 1 {
			return Attack{}, fmt.Errorf("scenario: attack kind %q takes no arguments", a.Kind)
		}
		a.From, a.To = 0, 0
		return a, nil
	case "delay":
		if len(parts) != 2 {
			return Attack{}, fmt.Errorf("scenario: delay needs its hour count (delay:3)")
		}
		slots, err := strconv.Atoi(parts[1])
		if err != nil {
			return Attack{}, fmt.Errorf("scenario: delay hours %q: %w", parts[1], err)
		}
		a.From, a.To = 0, 0
		a.Slots = slots
		return a, nil
	case "zero", "scale", "ramp", "load-shift", "false-reading", "adaptive":
	default:
		return Attack{}, fmt.Errorf("scenario: unknown attack kind %q (want zero|scale|ramp|delay|load-shift|false-reading|adaptive|invert|none)", a.Kind)
	}
	if len(parts) > 3 {
		return Attack{}, fmt.Errorf("scenario: attack %q has too many segments", s)
	}
	if len(parts) >= 2 {
		fromStr, toStr, ok := strings.Cut(parts[1], "-")
		if !ok {
			return Attack{}, fmt.Errorf("scenario: attack window %q is not from-to", parts[1])
		}
		from, err := strconv.Atoi(fromStr)
		if err != nil {
			return Attack{}, fmt.Errorf("scenario: attack window start %q: %w", fromStr, err)
		}
		to, err := strconv.Atoi(toStr)
		if err != nil {
			return Attack{}, fmt.Errorf("scenario: attack window end %q: %w", toStr, err)
		}
		a.From, a.To = from, to
	}
	if len(parts) == 3 {
		v, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return Attack{}, fmt.Errorf("scenario: attack value %q: %w", parts[2], err)
		}
		switch a.Kind {
		case "scale", "ramp", "load-shift":
			a.Factor = v
		case "false-reading":
			a.MagnitudeKW = v
		case "adaptive":
			a.Margin = v
		case "zero":
			return Attack{}, fmt.Errorf("scenario: zero takes no value segment")
		}
	} else {
		// Kinds whose scalar has no sensible default must spell it out.
		if a.Kind == "false-reading" {
			return Attack{}, fmt.Errorf("scenario: false-reading needs its magnitude (false-reading:10-15:0.8)")
		}
	}
	return a, nil
}

// ParseStrikeSlots parses a comma-separated list of coordinated strike
// slots ("2,8,14,20") into a Campaign.StrikeSlots value. An empty string
// returns nil (the stochastic campaign). Spec.Validate owns the range and
// ordering checks.
func ParseStrikeSlots(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var slots []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("scenario: strike slot %q: %w", part, err)
		}
		slots = append(slots, v)
	}
	return slots, nil
}
