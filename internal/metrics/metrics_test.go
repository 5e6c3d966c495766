package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"nmdetect/internal/rng"
)

func TestRMSE(t *testing.T) {
	if got := Must(RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})); got != 0 {
		t.Fatalf("perfect RMSE = %v", got)
	}
	if got := Must(RMSE([]float64{0, 0}, []float64{3, 4})); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMSE = %v", got)
	}
	if Must(RMSE(nil, nil)) != 0 {
		t.Fatal("empty RMSE should be 0")
	}
}

func TestLengthMismatchErrors(t *testing.T) {
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("RMSE mismatch did not error")
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("Accuracy mismatch did not error")
	}
}

func TestMustPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must did not panic on error")
		}
	}()
	Must(RMSE([]float64{1}, []float64{1, 2}))
}

func TestPAR(t *testing.T) {
	if got := Must(FinitePAR([]float64{1, 1, 1, 5})); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("PAR = %v", got)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Must(Accuracy([]int{1, 2, 3}, []int{1, 2, 3})); got != 1 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Must(Accuracy([]int{1, 0, 3, 0}, []int{1, 2, 3, 4})); got != 0.5 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Must(Accuracy(nil, nil)) != 0 {
		t.Fatal("empty Accuracy should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Must(Quantile(xs, 0)) != 1 || Must(Quantile(xs, 1)) != 5 {
		t.Fatal("quantile endpoints wrong")
	}
	if Must(Quantile(xs, 0.5)) != 3 {
		t.Fatalf("median = %v", Must(Quantile(xs, 0.5)))
	}
	if got := Must(Quantile([]float64{1, 2}, 0.5)); got != 1.5 {
		t.Fatalf("interpolated median = %v", got)
	}
	if Must(Quantile([]float64{7}, 0.3)) != 7 {
		t.Fatal("singleton quantile wrong")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Must(Quantile(xs, 0.5))
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileErrors(t *testing.T) {
	for _, tc := range []struct {
		xs []float64
		q  float64
	}{
		{nil, 0.5},
		{[]float64{1}, -0.1},
		{[]float64{1}, 1.1},
	} {
		if _, err := Quantile(tc.xs, tc.q); err == nil {
			t.Errorf("Quantile(%v, %v): expected error", tc.xs, tc.q)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	s := rng.New(1)
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q1 := s.Float64()
		q2 := s.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Must(Quantile(raw, q1)) <= Must(Quantile(raw, q2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFinite(t *testing.T) {
	if v, err := Finite("x", 1.5); err != nil || v != 1.5 {
		t.Fatalf("Finite(1.5) = %v, %v", v, err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Finite("x", bad); err == nil {
			t.Errorf("Finite(%v) accepted a non-finite value", bad)
		}
	}
}

func TestFinitePAR(t *testing.T) {
	if v, err := FinitePAR([]float64{1, 3, 2}); err != nil || v != 1.5 {
		t.Fatalf("FinitePAR = %v, %v; want 1.5", v, err)
	}
	// The raw Series.PAR is +Inf for a zero-mean series with a nonzero peak
	// — that sentinel must not cross the report boundary.
	if _, err := FinitePAR([]float64{-1, 1}); err == nil {
		t.Error("FinitePAR accepted a zero-mean series (raw PAR is +Inf)")
	}
	if _, err := FinitePAR(nil); err == nil {
		t.Error("FinitePAR accepted an empty series")
	}
	// All-zero series: raw PAR is 0, which is finite and passes.
	if v, err := FinitePAR([]float64{0, 0}); err != nil || v != 0 {
		t.Errorf("FinitePAR(zeros) = %v, %v; want 0", v, err)
	}
}
