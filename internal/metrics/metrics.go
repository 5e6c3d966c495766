// Package metrics implements the evaluation metrics reported in the paper:
// peak-to-average ratio (via package timeseries), forecast error measures,
// detection/observation accuracy, and confusion-matrix summaries for the
// POMDP observation channel.
//
// Shape mismatches and empty inputs are reported as returned errors, never
// panics (DESIGN.md "Scenario spec & cancellation contract"). Tests and other
// call sites with statically valid inputs may use Must to unwrap.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nmdetect/internal/timeseries"
)

// RMSE returns the root-mean-square error between predicted and actual.
func RMSE(pred, actual []float64) (float64, error) {
	if err := checkLen(pred, actual); err != nil {
		return 0, err
	}
	if len(pred) == 0 {
		return 0, nil
	}
	acc := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(pred))), nil
}

// MAE returns the mean absolute error.
func MAE(pred, actual []float64) (float64, error) {
	if err := checkLen(pred, actual); err != nil {
		return 0, err
	}
	if len(pred) == 0 {
		return 0, nil
	}
	acc := 0.0
	for i := range pred {
		acc += math.Abs(pred[i] - actual[i])
	}
	return acc / float64(len(pred)), nil
}

// MAPE returns the mean absolute percentage error in percent. Slots where
// the actual value is zero are skipped; if every slot is zero it returns 0.
func MAPE(pred, actual []float64) (float64, error) {
	if err := checkLen(pred, actual); err != nil {
		return 0, err
	}
	acc, n := 0.0, 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		acc += math.Abs((pred[i] - actual[i]) / actual[i])
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return 100 * acc / float64(n), nil
}

func checkLen(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("metrics: length mismatch %d != %d", len(a), len(b))
	}
	return nil
}

// Finite passes v through unchanged if it is a finite number and reports an
// error naming the metric otherwise. It is the guard between internal
// computations — where NaN and ±Inf are legal sentinels (a zero-mean PAR is
// +Inf by definition) — and report boundaries like JSON, which cannot
// represent non-finite floats.
func Finite(name string, v float64) (float64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("metrics: %s is non-finite (%v)", name, v)
	}
	return v, nil
}

// FinitePAR returns the peak-to-average ratio of load, rejecting the inputs
// on which Series.PAR is not a finite number: an empty series (no PAR) and a
// zero-mean series with a nonzero peak (+Inf by definition). Report builders
// use it so non-finite values never reach a JSON encoder.
func FinitePAR(load []float64) (float64, error) {
	if len(load) == 0 {
		return 0, errors.New("metrics: PAR of empty series")
	}
	return Finite("PAR", timeseries.Series(load).PAR())
}

// Accuracy returns the fraction of slots where the observed state matches the
// true state — the paper's "observation accuracy" (Figure 6). The slices hold
// per-slot discrete states (e.g. number of hacked meters, possibly bucketed).
func Accuracy(observed, truth []int) (float64, error) {
	if len(observed) != len(truth) {
		return 0, fmt.Errorf("metrics: length mismatch %d != %d", len(observed), len(truth))
	}
	if len(observed) == 0 {
		return 0, nil
	}
	hits := 0
	for i := range observed {
		if observed[i] == truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(observed)), nil
}

// Confusion is a binary confusion matrix for attack detection events.
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe records one (detected, attacked) pair.
func (c *Confusion) Observe(detected, attacked bool) {
	switch {
	case detected && attacked:
		c.TP++
	case detected && !attacked:
		c.FP++
	case !detected && attacked:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded observations.
func (c *Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/total, or 0 with no observations.
func (c *Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision returns TP/(TP+FP), or 0 when no positives were predicted.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when no attacks occurred.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when undefined.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// FalsePositiveRate returns FP/(FP+TN), or 0 when no negatives occurred.
func (c *Confusion) FalsePositiveRate() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// String renders the matrix compactly for logs.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d acc=%.4f prec=%.4f rec=%.4f",
		c.TP, c.FP, c.TN, c.FN, c.Accuracy(), c.Precision(), c.Recall())
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. An empty slice or out-of-range q is
// an error.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("metrics: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("metrics: Quantile q=%v out of [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// BootstrapCI estimates a two-sided confidence interval for the mean of xs by
// resampling. The draw function must return a uniform value in [0,1); nBoot
// resamples are taken and the (alpha/2, 1-alpha/2) quantiles of the resampled
// means are returned.
func BootstrapCI(xs []float64, nBoot int, alpha float64, draw func() float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, errors.New("metrics: BootstrapCI of empty slice")
	}
	if nBoot <= 0 {
		return 0, 0, errors.New("metrics: BootstrapCI with non-positive nBoot")
	}
	means := make([]float64, nBoot)
	for b := 0; b < nBoot; b++ {
		sum := 0.0
		for range xs {
			idx := int(draw() * float64(len(xs)))
			if idx >= len(xs) {
				idx = len(xs) - 1
			}
			sum += xs[idx]
		}
		means[b] = sum / float64(len(xs))
	}
	if lo, err = Quantile(means, alpha/2); err != nil {
		return 0, 0, err
	}
	if hi, err = Quantile(means, 1-alpha/2); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// RelChange returns (a-b)/b as a signed fraction — the form the paper uses
// for all its headline percentages (e.g. (1.9037-1.4700)/1.4700 = 29.50%).
// A zero base is an error.
func RelChange(a, b float64) (float64, error) {
	if b == 0 {
		return 0, errors.New("metrics: RelChange with zero base")
	}
	return (a - b) / b, nil
}

// Must unwraps a (value, error) pair, panicking on error. It is the one
// documented panic escape hatch of this package, intended for tests and call
// sites whose inputs are statically valid (equal-length slices built in the
// same function).
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err) // lint:allow-panic — documented Must* helper
	}
	return v
}
