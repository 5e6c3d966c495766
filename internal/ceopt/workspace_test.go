package ceopt

import (
	"math"
	"testing"

	"nmdetect/internal/rng"
)

// TestWorkspaceMinimizeBitwiseIdentity pins the workspace contract: a reused
// Workspace — across calls with different dimensions and objectives — returns
// exactly the bits the allocating Minimize returns, and earlier Results stay
// valid after the workspace is reused (Result.X never aliases the workspace).
func TestWorkspaceMinimizeBitwiseIdentity(t *testing.T) {
	opts := DefaultOptions()
	opts.Samples = 16
	opts.MaxIter = 8

	type problem struct {
		d     int
		shift float64
	}
	problems := []problem{{6, 1.0}, {24, 0.3}, {3, 2.0}, {24, 0.3}}

	ws := &Workspace{}
	var firstX []float64
	for k, p := range problems {
		f := func(x []float64) float64 {
			s := 0.0
			for _, v := range x {
				s += (v - p.shift) * (v - p.shift)
			}
			return s
		}
		lo, hi := box(p.d, -3, 3)
		init := make([]float64, p.d)

		want, err := Minimize(nil, f, lo, hi, init, rng.New(uint64(90+k)), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.Minimize(nil, f, lo, hi, init, rng.New(uint64(90+k)), opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.F) != math.Float64bits(want.F) ||
			got.Iterations != want.Iterations || got.Converged != want.Converged ||
			got.Evaluations != want.Evaluations {
			t.Fatalf("problem %d: workspace result %+v != allocating %+v", k, got, want)
		}
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("problem %d dim %d: workspace X %v != allocating %v (bitwise)", k, i, got.X[i], want.X[i])
			}
		}
		if k == 0 {
			firstX = got.X
		}
	}

	// The first result must be untouched by the three later reuses.
	f0 := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += (v - 1.0) * (v - 1.0)
		}
		return s
	}
	lo, hi := box(6, -3, 3)
	ref, err := Minimize(nil, f0, lo, hi, make([]float64, 6), rng.New(90), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.X {
		if math.Float64bits(firstX[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("dim %d: earlier Result.X mutated by workspace reuse", i)
		}
	}
}
