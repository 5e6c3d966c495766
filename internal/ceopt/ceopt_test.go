package ceopt

import (
	"context"
	"math"
	"testing"

	"nmdetect/internal/mat"
	"nmdetect/internal/rng"
)

func box(d int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, d)
	h := make([]float64, d)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return l, h
}

func TestDefaultOptionsValid(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidateRejects(t *testing.T) {
	base := DefaultOptions()
	cases := []func(*Options){
		func(o *Options) { o.Samples = 1 },
		func(o *Options) { o.EliteFrac = 0 },
		func(o *Options) { o.EliteFrac = 1.5 },
		func(o *Options) { o.EliteFrac = 0.001 }, // no elites
		func(o *Options) { o.MaxIter = 0 },
		func(o *Options) { o.InitStdFrac = 0 },
		func(o *Options) { o.Smoothing = 0 },
		func(o *Options) { o.Smoothing = 1.2 },
		func(o *Options) { o.StdTol = -1 },
	}
	for i, mod := range cases {
		o := base
		mod(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMinimizeSphere(t *testing.T) {
	// Minimum of Σ(x−3)² inside [0,10]^5 is x = 3·1.
	lo, hi := box(5, 0, 10)
	f := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			d := v - 3
			s += d * d
		}
		return s
	}
	res, err := Minimize(context.Background(), f, lo, hi, nil, rng.New(42), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X {
		if math.Abs(v-3) > 0.2 {
			t.Fatalf("x[%d] = %v, want ~3 (res %+v)", i, v, res)
		}
	}
	if res.F > 0.1 {
		t.Fatalf("F = %v", res.F)
	}
}

func TestMinimizeBoundaryOptimum(t *testing.T) {
	// Minimum of Σx on [0,1]^4 is at the lower boundary.
	lo, hi := box(4, 0, 1)
	f := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v
		}
		return s
	}
	res, err := Minimize(context.Background(), f, lo, hi, nil, rng.New(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 0.15 {
		t.Fatalf("boundary optimum not approached: F = %v", res.F)
	}
	for i, v := range res.X {
		if v < 0 || v > 1 {
			t.Fatalf("x[%d] = %v escaped the box", i, v)
		}
	}
}

func TestMinimizeNonConvex(t *testing.T) {
	// Rastrigin-like 1-D function with global minimum at 2.0 inside [0, 4].
	f := func(x []float64) float64 {
		d := x[0] - 2
		return d*d + 0.3*math.Sin(8*x[0])*math.Sin(8*x[0])
	}
	opts := DefaultOptions()
	opts.Samples = 100
	opts.MaxIter = 60
	res, err := Minimize(context.Background(), f, []float64{0}, []float64{4}, nil, rng.New(7), opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 0.45 {
		t.Fatalf("x = %v, want near 2", res.X[0])
	}
}

func TestMinimizeRespectsInit(t *testing.T) {
	// A deceptive objective with two basins; starting near the right basin
	// must find it.
	f := func(x []float64) float64 {
		// Minima at 1 (value 0) and 9 (value -1).
		a := (x[0] - 1) * (x[0] - 1)
		b := (x[0]-9)*(x[0]-9) - 1
		return math.Min(a, b)
	}
	opts := DefaultOptions()
	opts.InitStdFrac = 0.05 // stay local
	res, err := Minimize(context.Background(), f, []float64{0}, []float64{10}, []float64{9.2}, rng.New(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-9) > 0.5 {
		t.Fatalf("x = %v, want near 9", res.X[0])
	}
}

func TestMinimizeInitClamped(t *testing.T) {
	f := func(x []float64) float64 { return x[0] }
	res, err := Minimize(context.Background(), f, []float64{0}, []float64{1}, []float64{99}, rng.New(5), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] < 0 || res.X[0] > 1 {
		t.Fatalf("init clamp failed: %v", res.X[0])
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	f := func(x []float64) float64 { return mat.Dot(x, x) }
	lo, hi := box(3, -5, 5)
	a, err := Minimize(context.Background(), f, lo, hi, nil, rng.New(11), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Minimize(context.Background(), f, lo, hi, nil, rng.New(11), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("same seed produced different results")
		}
	}
	if a.F != b.F || a.Iterations != b.Iterations {
		t.Fatal("same seed produced different trajectories")
	}
}

func TestMinimizeDegenerateBox(t *testing.T) {
	// One coordinate is pinned (lo == hi).
	f := func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }
	res, err := Minimize(context.Background(), f, []float64{2, -1}, []float64{2, 1}, nil, rng.New(13), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 2 {
		t.Fatalf("pinned coordinate moved: %v", res.X[0])
	}
	if math.Abs(res.X[1]) > 0.2 {
		t.Fatalf("free coordinate = %v, want ~0", res.X[1])
	}
}

func TestMinimizeErrors(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	if _, err := Minimize(context.Background(), nil, []float64{0}, []float64{1}, nil, rng.New(1), DefaultOptions()); err == nil {
		t.Error("nil objective accepted")
	}
	if _, err := Minimize(context.Background(), f, []float64{0}, []float64{1}, nil, nil, DefaultOptions()); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Minimize(context.Background(), f, nil, nil, nil, rng.New(1), DefaultOptions()); err == nil {
		t.Error("empty box accepted")
	}
	if _, err := Minimize(context.Background(), f, []float64{0, 0}, []float64{1}, nil, rng.New(1), DefaultOptions()); err == nil {
		t.Error("mismatched box accepted")
	}
	if _, err := Minimize(context.Background(), f, []float64{1}, []float64{0}, nil, rng.New(1), DefaultOptions()); err == nil {
		t.Error("inverted box accepted")
	}
	if _, err := Minimize(context.Background(), f, []float64{0}, []float64{1}, []float64{0, 0}, rng.New(1), DefaultOptions()); err == nil {
		t.Error("mismatched init accepted")
	}
	bad := DefaultOptions()
	bad.Samples = 0
	if _, err := Minimize(context.Background(), f, []float64{0}, []float64{1}, nil, rng.New(1), bad); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestMinimizeConvergenceReported(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * x[0] }
	opts := DefaultOptions()
	opts.MaxIter = 200
	opts.MinStd = 0 // allow full collapse so StdTol can fire
	res, err := Minimize(context.Background(), f, []float64{-1}, []float64{1}, nil, rng.New(17), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("expected convergence, got %+v", res)
	}
	if res.Iterations >= opts.MaxIter {
		t.Fatal("convergence did not stop early")
	}
}

func TestMinimizeEvaluationBudget(t *testing.T) {
	count := 0
	f := func(x []float64) float64 { count++; return x[0] }
	opts := DefaultOptions()
	opts.MaxIter = 5
	opts.StdTol = 0 // never converge early
	opts.MinStd = 0.01
	res, err := Minimize(context.Background(), f, []float64{0}, []float64{1}, nil, rng.New(19), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + opts.Samples*opts.MaxIter // init eval + population evals
	if count != want || res.Evaluations != want {
		t.Fatalf("evaluations = %d (reported %d), want %d", count, res.Evaluations, want)
	}
}

func TestMinimizeNeverWorseThanInitProperty(t *testing.T) {
	// Property: the returned incumbent is at least as good as the initial
	// point (the optimizer seeds its incumbent with the init evaluation).
	src := rng.New(41)
	f := func() bool {
		d := 1 + src.Intn(6)
		lo := make([]float64, d)
		hi := make([]float64, d)
		init := make([]float64, d)
		target := make([]float64, d)
		for i := 0; i < d; i++ {
			lo[i] = src.Range(-5, 0)
			hi[i] = src.Range(1, 5)
			init[i] = src.Range(lo[i], hi[i])
			target[i] = src.Range(lo[i], hi[i])
		}
		obj := func(x []float64) float64 {
			s := 0.0
			for i := range x {
				dd := x[i] - target[i]
				s += dd * dd
			}
			return s
		}
		opts := DefaultOptions()
		opts.Samples = 20
		opts.MaxIter = 8
		res, err := Minimize(context.Background(), obj, lo, hi, init, src.Derive("run"), opts)
		if err != nil {
			return false
		}
		return res.F <= obj(init)+1e-12
	}
	for i := 0; i < 40; i++ {
		if !f() {
			t.Fatalf("trial %d: result worse than init", i)
		}
	}
}

func TestMinimizeHighDimensionalTrajectory(t *testing.T) {
	// 24-dimensional problem shaped like the battery use case: quadratic
	// tracking of a target trajectory.
	target := make([]float64, 24)
	for i := range target {
		target[i] = 5 + 3*math.Sin(float64(i)/4)
	}
	f := func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			d := v - target[i]
			s += d * d
		}
		return s
	}
	lo, hi := box(24, 0, 10)
	opts := DefaultOptions()
	opts.Samples = 200
	opts.MaxIter = 80
	res, err := Minimize(context.Background(), f, lo, hi, nil, rng.New(23), opts)
	if err != nil {
		t.Fatal(err)
	}
	// RMS error per coordinate should be small.
	if rms := math.Sqrt(res.F / 24); rms > 0.5 {
		t.Fatalf("per-coordinate RMS = %v", rms)
	}
}
