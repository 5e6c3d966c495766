// Package mat implements the small dense linear-algebra substrate used by the
// SVR trainer, the forecaster and the statistics helpers.
//
// The reproduction is stdlib-only, so the handful of numeric kernels the
// paper's pipeline needs — vector arithmetic, Gram/kernel matrices, Cholesky
// and LU solves, and a symmetric eigensolver — are implemented here from
// scratch. Matrices are dense, row-major float64; everything is sized for the
// problem at hand (hundreds of rows), not for BLAS-scale workloads.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned by the solvers when the system matrix is singular
// (or not positive definite, for Cholesky) to working precision.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equally-long rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d: len %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				oi[j] += a * bk[j]
			}
		}
	}
	return out
}

// MulVec returns m * x as a new vector.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// AddDiag adds v to every diagonal element in place (ridge regularization).
func (m *Matrix) AddDiag(v float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
}

// Dot returns the inner product of two equally-long vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sub returns a - b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: Sub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Add returns a + b as a new vector.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: Add length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: SqDist length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite matrix. It returns ErrSingular if A is not
// positive definite to working precision. Only the lower triangle of A is
// read.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		panic("mat: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholeskySolve solves A·x = b given the Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mat: CholeskySolve length mismatch")
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
	// Back substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}

// SolveSPD solves A·x = b for symmetric positive-definite A via Cholesky.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholeskySolve(l, b), nil
}

// LU holds a factorization P·A = L·U with partial pivoting.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  int
}

// FactorLU computes the LU factorization of a square matrix with partial
// pivoting. It returns ErrSingular when a zero pivot is encountered.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		panic("mat: FactorLU of non-square matrix")
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	sign := 1
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot selection.
		p := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > maxAbs {
				maxAbs, p = v, r
			}
		}
		if maxAbs < 1e-14 {
			return nil, ErrSingular
		}
		if p != col {
			ri, rj := lu.Row(p), lu.Row(col)
			for k := range ri {
				ri[k], rj[k] = rj[k], ri[k]
			}
			pivot[p], pivot[col] = pivot[col], pivot[p]
			sign = -sign
		}
		inv := 1.0 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			rr, rc := lu.Row(r), lu.Row(col)
			for k := col + 1; k < n; k++ {
				rr[k] -= f * rc[k]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

// Solve solves A·x = b using the factorization.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("mat: LU.Solve length mismatch")
	}
	x := make([]float64, n)
	for i, p := range f.pivot {
		x[i] = b[p]
	}
	// Forward: L·y = P·b (unit diagonal).
	for i := 1; i < n; i++ {
		sum := x[i]
		row := f.lu.Row(i)
		for k := 0; k < i; k++ {
			sum -= row[k] * x[k]
		}
		x[i] = sum
	}
	// Backward: U·x = y.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		row := f.lu.Row(i)
		for k := i + 1; k < n; k++ {
			sum -= row[k] * x[k]
		}
		x[i] = sum / row[i]
	}
	return x
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves the square system A·x = b with LU factorization.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// SymEigen computes the eigenvalues and eigenvectors of a symmetric matrix
// using the cyclic Jacobi method. It returns eigenvalues in ascending order
// and a matrix whose columns are the matching unit eigenvectors. The input is
// not modified.
func SymEigen(a *Matrix) ([]float64, *Matrix) {
	if a.Rows != a.Cols {
		panic("mat: SymEigen of non-square matrix")
	}
	n := a.Rows
	m := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-18 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := m.At(k, p), m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	// Extract and sort ascending by eigenvalue (selection sort on columns).
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m.At(i, i)
	}
	for i := 0; i < n-1; i++ {
		minIdx := i
		for j := i + 1; j < n; j++ {
			if vals[j] < vals[minIdx] {
				minIdx = j
			}
		}
		if minIdx != i {
			vals[i], vals[minIdx] = vals[minIdx], vals[i]
			for k := 0; k < n; k++ {
				vi, vm := v.At(k, i), v.At(k, minIdx)
				v.Set(k, i, vm)
				v.Set(k, minIdx, vi)
			}
		}
	}
	return vals, v
}
