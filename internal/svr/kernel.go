// Package svr implements support vector regression from scratch — the
// guideline-price predictor of Section 4.1.
//
// The trainer is the least-squares SVM (kernel ridge regression with bias),
// the formulation of the paper's own reference [10] (Tuomas et al., "LS-SVM
// functional network for time series prediction"). Training reduces to one
// dense linear solve and is deterministic. The Kernel interface, the feature
// Scaler and the Model prediction type are what the forecaster and the
// kernel ablations build on.
package svr

import (
	"fmt"
	"math"

	"nmdetect/internal/mat"
)

// Kernel computes k(a, b) for feature vectors of equal length.
type Kernel interface {
	Eval(a, b []float64) float64
	// Name identifies the kernel for diagnostics.
	Name() string
}

// LinearKernel is k(a,b) = aᵀb.
type LinearKernel struct{}

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 { return mat.Dot(a, b) }

// Name implements Kernel.
func (LinearKernel) Name() string { return "linear" }

// RBFKernel is k(a,b) = exp(−γ‖a−b‖²).
type RBFKernel struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 {
	return math.Exp(-k.Gamma * mat.SqDist(a, b))
}

// Name implements Kernel.
func (k RBFKernel) Name() string { return fmt.Sprintf("rbf(γ=%g)", k.Gamma) }

// PolyKernel is k(a,b) = (aᵀb + coef)^degree.
type PolyKernel struct {
	Degree int
	Coef   float64
}

// Eval implements Kernel.
func (k PolyKernel) Eval(a, b []float64) float64 {
	return math.Pow(mat.Dot(a, b)+k.Coef, float64(k.Degree))
}

// Name implements Kernel.
func (k PolyKernel) Name() string { return fmt.Sprintf("poly(d=%d,c=%g)", k.Degree, k.Coef) }

// gram builds the kernel matrix K_ij = k(xᵢ, xⱼ).
func gram(k Kernel, x [][]float64) *mat.Matrix {
	n := len(x)
	g := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k.Eval(x[i], x[j])
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	return g
}

// Scaler standardizes features to zero mean and unit variance per column,
// fitted on the training set. Constant columns are left centered only.
type Scaler struct {
	Mean, Std []float64
}

// FitScaler computes column statistics of x.
func FitScaler(x [][]float64) *Scaler {
	if len(x) == 0 {
		return &Scaler{}
	}
	d := len(x[0])
	s := &Scaler{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, row := range x {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(len(x)))
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1 // constant column: center only
		}
	}
	return s
}

// Transform returns the standardized copy of one row.
func (s *Scaler) Transform(row []float64) []float64 {
	if len(s.Mean) == 0 {
		out := make([]float64, len(row))
		copy(out, row)
		return out
	}
	if len(row) != len(s.Mean) {
		panic(fmt.Sprintf("svr: Transform row length %d != fitted %d", len(row), len(s.Mean)))
	}
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes every row.
func (s *Scaler) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Transform(row)
	}
	return out
}
