package battery

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"nmdetect/internal/rng"
)

func TestNewDefaults(t *testing.T) {
	b := New(13.5)
	if b.Capacity != 13.5 {
		t.Fatalf("New = %+v", b)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Battery{
		{Capacity: -1},
	}
	for i, b := range cases {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, b)
		}
	}
}

func TestCheckTrajectoryOK(t *testing.T) {
	b := New(10)
	if err := b.CheckTrajectory([]float64{0, 5, 10, 3, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckTrajectoryViolations(t *testing.T) {
	b := New(10)
	cases := []struct {
		name string
		traj []float64
	}{
		{"too short", []float64{1}},
		{"negative state", []float64{0, -1}},
		{"over capacity", []float64{0, 11}},
	}
	for _, c := range cases {
		if err := b.CheckTrajectory(c.traj); !errors.Is(err, ErrTrajectory) {
			t.Errorf("%s: err = %v, want ErrTrajectory", c.name, err)
		}
	}
}

func TestCheckTrajectoryUnlimitedRates(t *testing.T) {
	b := New(100)
	if err := b.CheckTrajectory([]float64{0, 100, 0}); err != nil {
		t.Fatalf("unlimited rates rejected big swing: %v", err)
	}
}

func TestImpliedTradingEqn1(t *testing.T) {
	// Eqn 1: b[t+1] = b[t] + θ[t] + y[t] − l[t]  =>  y = Δb − θ + l.
	traj := []float64{0, 2, 1}
	load := []float64{3, 4}
	gen := []float64{1, 2}
	y, err := ImpliedTrading(traj, load, gen)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2 - 0 - 1 + 3, 1 - 2 - 2 + 4} // {4, 1}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestImpliedTradingRoundTripProperty(t *testing.T) {
	// Property: reconstructing b from y via Eqn 1 recovers the trajectory.
	s := rng.New(5)
	f := func() bool {
		h := 1 + s.Intn(24)
		traj := make([]float64, h+1)
		load := make([]float64, h)
		gen := make([]float64, h)
		for i := range traj {
			traj[i] = s.Range(0, 10)
		}
		for i := range load {
			load[i] = s.Range(0, 5)
			gen[i] = s.Range(0, 3)
		}
		y, err := ImpliedTrading(traj, load, gen)
		if err != nil {
			return false
		}
		b := traj[0]
		for t := 0; t < h; t++ {
			b = b + gen[t] + y[t] - load[t]
			if math.Abs(b-traj[t+1]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestImpliedTradingLengthErrors(t *testing.T) {
	if _, err := ImpliedTrading([]float64{0, 1}, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("gen/load mismatch accepted")
	}
	if _, err := ImpliedTrading([]float64{0, 1}, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("trajectory length mismatch accepted")
	}
}

func TestFlatTrajectory(t *testing.T) {
	traj := FlatTrajectory(2.5, 24)
	if len(traj) != 25 {
		t.Fatalf("length = %d", len(traj))
	}
	for _, v := range traj {
		if v != 2.5 {
			t.Fatalf("trajectory not flat: %v", traj)
		}
	}
	// A flat trajectory implies y = l − θ (pure pass-through).
	load := make([]float64, 24)
	gen := make([]float64, 24)
	for i := range load {
		load[i] = float64(i)
		gen[i] = 1
	}
	y, err := ImpliedTrading(traj, load, gen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(y[i]-(load[i]-gen[i])) > 1e-12 {
			t.Fatalf("flat trajectory trading wrong at %d", i)
		}
	}
}
