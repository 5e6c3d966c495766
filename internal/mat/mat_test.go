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

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
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
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestSubAddSqDistScale(t *testing.T) {
	a := []float64{5, 7}
	b := []float64{2, 3}
	if s := Sub(a, b); s[0] != 3 || s[1] != 4 {
		t.Fatalf("Sub = %v", s)
	}
	if s := Add(a, b); s[0] != 7 || s[1] != 10 {
		t.Fatalf("Add = %v", s)
	}
	if SqDist(a, b) != 25 {
		t.Fatalf("SqDist = %v", SqDist(a, b))
	}
	v := []float64{1, 2}
	Scale(3, v)
	if v[0] != 3 || v[1] != 6 {
		t.Fatalf("Scale = %v", v)
	}
}

// randomSPD builds a well-conditioned symmetric positive definite matrix.
func randomSPD(s *rng.Source, n int) *Matrix {
	g := NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = s.Normal(0, 1)
	}
	a := g.Mul(g.T())
	a.AddDiag(float64(n)) // ensure positive definiteness
	return a
}

func TestCholeskySolveRoundTrip(t *testing.T) {
	s := rng.New(100)
	for _, n := range []int{1, 2, 5, 20} {
		a := randomSPD(s, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = s.Normal(0, 1)
		}
		b := a.MulVec(xTrue)
		x, err := SolveSPD(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-8) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyFactorization(t *testing.T) {
	s := rng.New(101)
	a := randomSPD(s, 6)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := l.Mul(l.T())
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !almostEq(llt.At(i, j), a.At(i, j), 1e-9) {
				t.Fatalf("L·Lᵀ != A at %d,%d: %v vs %v", i, j, llt.At(i, j), a.At(i, j))
			}
		}
	}
	// Upper triangle of L must be zero.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("L not lower triangular at %d,%d", i, j)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
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

func TestLUDet(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -6, 1e-10) {
		t.Fatalf("Det = %v, want -6", f.Det())
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

func TestSymEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	vals, _ := SymEigen(a)
	if !almostEq(vals[0], 1, 1e-10) || !almostEq(vals[1], 3, 1e-10) {
		t.Fatalf("eigenvalues = %v", vals)
	}
}

func TestSymEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs := SymEigen(a)
	if !almostEq(vals[0], 1, 1e-9) || !almostEq(vals[1], 3, 1e-9) {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Check A·v = λ·v for each column.
	for c := 0; c < 2; c++ {
		v := []float64{vecs.At(0, c), vecs.At(1, c)}
		av := a.MulVec(v)
		for i := range av {
			if !almostEq(av[i], vals[c]*v[i], 1e-8) {
				t.Fatalf("A·v != λ·v for column %d", c)
			}
		}
	}
}

func TestSymEigenTraceInvariant(t *testing.T) {
	s := rng.New(103)
	a := randomSPD(s, 8)
	trace := 0.0
	for i := 0; i < 8; i++ {
		trace += a.At(i, i)
	}
	vals, _ := SymEigen(a)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if !almostEq(trace, sum, 1e-7*math.Abs(trace)) {
		t.Fatalf("trace %v != eigenvalue sum %v", trace, sum)
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

func TestSolveSPDRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{0, 0}, {0, 0}})
	if _, err := SolveSPD(a, []float64{1, 1}); err == nil {
		t.Fatal("SolveSPD accepted the zero matrix")
	}
}
