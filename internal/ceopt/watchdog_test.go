package ceopt

import (
	"context"
	"errors"
	"math"
	"testing"

	"nmdetect/internal/rng"
	"nmdetect/internal/watchdog"
)

func TestMinimizeDivergesOnNaNObjective(t *testing.T) {
	lo, hi := box(4, 0, 1)
	f := func(x []float64) float64 { return math.NaN() }
	opts := DefaultOptions()
	opts.Samples = 10
	opts.MaxIter = 20
	_, err := Minimize(context.Background(), f, lo, hi, nil, rng.New(3), opts)
	if !errors.Is(err, watchdog.ErrDiverged) {
		t.Fatalf("want ErrDiverged, got %v", err)
	}
}

func TestMinimizeDivergesOnUnboundedObjective(t *testing.T) {
	lo, hi := box(4, 0, 1)
	f := func(x []float64) float64 { return math.Inf(-1) }
	opts := DefaultOptions()
	opts.Samples = 10
	opts.MaxIter = 20
	_, err := Minimize(context.Background(), f, lo, hi, nil, rng.New(3), opts)
	if !errors.Is(err, watchdog.ErrDiverged) {
		t.Fatalf("want ErrDiverged, got %v", err)
	}
}

// A transient NaN burst (the first population evaluates NaN, later ones are
// clean) must be absorbed by the bounded retry: the optimizer restores its
// last-good density, redraws, and completes without error.
func TestMinimizeRecoversFromTransientNaN(t *testing.T) {
	lo, hi := box(3, 0, 1)
	opts := DefaultOptions()
	opts.Samples = 8
	opts.MaxIter = 30
	poisoned := opts.Samples + 1 // incumbent seed eval + first population
	calls := 0
	f := func(x []float64) float64 {
		calls++
		if calls <= poisoned {
			return math.NaN()
		}
		s := 0.0
		for _, v := range x {
			s += (v - 0.25) * (v - 0.25)
		}
		return s
	}
	res, err := Minimize(context.Background(), f, lo, hi, nil, rng.New(9), opts)
	if err != nil {
		t.Fatalf("transient NaN not absorbed: %v", err)
	}
	if math.IsNaN(res.F) || math.IsInf(res.F, 0) {
		t.Fatalf("recovered run returned non-finite objective %v", res.F)
	}
	for i, v := range res.X {
		if math.Abs(v-0.25) > 0.2 {
			t.Fatalf("coordinate %d = %v far from optimum after recovery", i, v)
		}
	}
}
