package scenario

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagsUnregisteredKnobsKeepDefault: a command that registers none of
// the world flags lowers to Default(500, 42) exactly, so a knob it does not
// expose can never drift from the spec's default.
func TestFlagsUnregisteredKnobsKeepDefault(t *testing.T) {
	f := NewFlags(flag.NewFlagSet("t", flag.ContinueOnError))
	got, err := f.Spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := Default(500, 42); !reflect.DeepEqual(got, want) {
		t.Fatalf("lowered %+v, want Default %+v", got, want)
	}
}

func TestFlagsLowering(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := NewFlags(fs, "n", "seed", "boot", "days", "sweeps", "workers", "jacobi", "active-tol", "shards",
		"solver", "attack", "strike-slots", "communities", "scenario", "dump-scenario")
	args := "-n 12 -seed 7 -boot 4 -days 3 -sweeps 2 -workers 2 -jacobi 4 -active-tol 0.5 -shards 3 " +
		"-solver qmdp -attack scale:16-19:0.5 -strike-slots 2,8 -communities 3 -dump-scenario"
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	var edited bool
	got, err := f.Spec(func(s *Spec) error { edited = true; s.Horizon.SimDays = 9; return nil })
	if err != nil {
		t.Fatal(err)
	}
	want := Default(12, 7)
	want.Horizon.BootstrapDays, want.Horizon.MonitorDays, want.Horizon.SimDays = 4, 3, 9
	want.Game = Game{Sweeps: 2, Workers: 2, JacobiBlock: 4, ActiveTol: 0.5, Shards: 3}
	want.Detector.Solver = "qmdp"
	want.Attack = Attack{Kind: "scale", From: 16, To: 19, Factor: 0.5}
	want.Campaign.StrikeSlots = []int{2, 8}
	want.Fleet = &Fleet{Communities: 3}
	if !edited || !f.Dump || !reflect.DeepEqual(got, want) {
		t.Fatalf("edited=%v dump=%v lowered\n%+v\nwant\n%+v", edited, f.Dump, got, want)
	}

	// A -scenario replaces the flag-built spec whole.
	f.Scenario = "fig3"
	got, err = f.Spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if preset, _ := Preset("fig3"); got.ID() != preset.ID() {
		t.Fatalf("-scenario fig3 lowered to %s, want %s", got.ID(), preset.ID())
	}
}

func TestFlagsErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Flags)
	}{
		{"bad attack", func(f *Flags) { f.Attack = "zero:x" }},
		{"bad attack even with -scenario", func(f *Flags) { f.Attack = "zero:x"; f.Scenario = "fig3" }},
		{"bad strike slots", func(f *Flags) { f.StrikeSlots = "2,x" }},
		{"unknown preset", func(f *Flags) { f.Scenario = "nope" }},
		{"invalid world", func(f *Flags) { f.N = 2 }},
	} {
		f := NewFlags(flag.NewFlagSet("t", flag.ContinueOnError))
		tc.set(f)
		if _, err := f.Spec(nil); err == nil {
			t.Errorf("%s: lowered without error", tc.name)
		}
	}
}
