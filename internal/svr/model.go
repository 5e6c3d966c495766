package svr

import (
	"errors"
	"fmt"
	"math"
)

// Model is a trained kernel regression model f(x) = Σᵢ coefᵢ·k(svᵢ, x) + b.
type Model struct {
	Kernel  Kernel
	Scaler  *Scaler
	SV      [][]float64 // support vectors (already standardized)
	Coef    []float64   // dual coefficients αᵢ of the LS-SVM saddle system
	Bias    float64
	Trainer string // always "ls-svm", for diagnostics
}

// Predict evaluates the model at one raw (unscaled) feature vector.
func (m *Model) Predict(row []float64) float64 {
	x := m.Scaler.Transform(row)
	out := m.Bias
	for i, sv := range m.SV {
		if m.Coef[i] == 0 {
			continue
		}
		out += m.Coef[i] * m.Kernel.Eval(sv, x)
	}
	return out
}

// validateTrainingSet performs the trainer's input checks. Non-finite
// features or targets are rejected up front: the LS-SVM solve would otherwise
// return a model that predicts NaN.
func validateTrainingSet(x [][]float64, y []float64, k Kernel) error {
	if len(x) == 0 {
		return errors.New("svr: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("svr: %d rows but %d targets", len(x), len(y))
	}
	d := len(x[0])
	if d == 0 {
		return errors.New("svr: zero-dimensional features")
	}
	for i, row := range x {
		if len(row) != d {
			return fmt.Errorf("svr: ragged row %d (%d features, want %d)", i, len(row), d)
		}
		for j, v := range row {
			if !finite(v) {
				return fmt.Errorf("svr: non-finite feature %v at row %d, column %d", v, i, j)
			}
		}
		if !finite(y[i]) {
			return fmt.Errorf("svr: non-finite target %v at row %d", y[i], i)
		}
	}
	if k == nil {
		return errors.New("svr: nil kernel")
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
