package mat

import (
	"math"
	"testing"
	"testing/quick"

	"nmdetect/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatal("At returned wrong element")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestDotNormAxpy(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if n2 := SqDist([]float64{3, 4}, []float64{0, 0}); n2 != 25 {
		t.Fatalf("squared norm of (3,4) = %v", n2)
	}
}

func TestSubAddSqDistScale(t *testing.T) {
	a := []float64{5, 7}
	b := []float64{2, 3}
	if SqDist(a, b) != 25 {
		t.Fatalf("SqDist = %v", SqDist(a, b))
	}
}

func TestLUSolveRoundTrip(t *testing.T) {
	s := rng.New(102)
	for _, n := range []int{1, 3, 10, 30} {
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = s.Normal(0, 1)
		}
		a.AddDiag(5) // keep well-conditioned
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = s.Normal(0, 2)
		}
		b := a.MulVec(xTrue)
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-7) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestDotCommutativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw {
			// Skip inputs whose products could overflow — Inf-Inf sums are NaN.
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		return Dot(a, b) == Dot(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
