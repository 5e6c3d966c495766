package timeseries

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicStats(t *testing.T) {
	s := Series{1, 2, 3, 4}
	if s.Sum() != 10 {
		t.Fatalf("Sum = %v", s.Sum())
	}
	if s.Mean() != 2.5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if mx, i := s.Max(); mx != 4 || i != 3 {
		t.Fatalf("Max = %v at %d", mx, i)
	}
	if mn, i := s.Min(); mn != 1 || i != 0 {
		t.Fatalf("Min = %v at %d", mn, i)
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Sum() != 0 {
		t.Fatal("empty series stats not zero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Max of empty series did not panic")
		}
	}()
	s.Max()
}

func TestAddSubScale(t *testing.T) {
	a := Series{1, 2}
	if c := a.ScaleBy(10); c[0] != 10 || c[1] != 20 {
		t.Fatalf("ScaleBy = %v", c)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Series{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestPAR(t *testing.T) {
	flat := Series{2, 2, 2, 2}
	if flat.PAR() != 1 {
		t.Fatalf("flat PAR = %v", flat.PAR())
	}
	peaky := Series{1, 1, 1, 5}
	want := 5.0 / 2.0
	if math.Abs(peaky.PAR()-want) > 1e-12 {
		t.Fatalf("PAR = %v, want %v", peaky.PAR(), want)
	}
}

func TestPARZeroMean(t *testing.T) {
	if (Series{0, 0}).PAR() != 0 {
		t.Fatal("all-zero PAR should be 0")
	}
	if !math.IsInf((Series{-1, 1}).PAR(), 1) {
		t.Fatal("zero-mean nonzero-peak PAR should be +Inf")
	}
}

func TestPARAtLeastOneProperty(t *testing.T) {
	// For non-negative series with positive mean, PAR >= 1.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := make(Series, len(raw))
		sum := 0.0
		for i, v := range raw {
			// Bound magnitudes so the sum cannot overflow to +Inf.
			if math.IsNaN(v) || math.Abs(v) > 1e300 {
				return true
			}
			s[i] = math.Abs(v)
			sum += s[i]
		}
		if sum == 0 {
			return true
		}
		return s.PAR() >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceBounds(t *testing.T) {
	s := Series{1, 2, 3}
	sub := s.Slice(1, 3)
	if len(sub) != 2 || sub[0] != 2 {
		t.Fatalf("Slice = %v", sub)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds Slice did not panic")
		}
	}()
	s.Slice(0, 4)
}
