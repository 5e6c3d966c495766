package main

import (
	"fmt"
	"math"
	"time"

	"nmdetect/internal/metrics"
)

// minBeyond is the number of samples that must lie beyond a tail
// percentile before the benchmark reports it as a tail estimate: fewer, and
// the value is set by a handful of observations.
const minBeyond = 10

// median is the median of xs, NaN when xs is empty (report refuses NaN).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is metrics.Quantile with its empty-slice error mapped to NaN.
func quantile(xs []float64, p float64) float64 {
	v, err := metrics.Quantile(xs, p)
	if err != nil {
		return math.NaN()
	}
	return v
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// Tail is a percentile together with the evidence behind it: the sample
// count and how many samples lie strictly beyond the reported value.
type Tail struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// OK reports whether at least minBeyond samples lie beyond the percentile.
func (t Tail) OK() bool { return t.Beyond >= minBeyond }

func (t Tail) String() string {
	note := ""
	if !t.OK() {
		note = fmt.Sprintf(", fewer than %d beyond: indicative only", minBeyond)
	}
	return fmt.Sprintf("p%g=%.4g over n=%d (%d beyond%s)", 100*t.P, t.Value, t.N, t.Beyond, note)
}

// tail computes the p-quantile of xs and counts the samples beyond it.
func tail(xs []float64, p float64) Tail {
	v := quantile(xs, p)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return Tail{P: p, Value: v, N: len(xs), Beyond: beyond}
}

// highestTail is the highest percentile, on a 1% grid up to p99, that keeps
// at least minBeyond samples beyond it. ok is false when even the median
// has fewer than minBeyond samples beyond it.
func highestTail(xs []float64) (Tail, bool) {
	best, ok := Tail{}, false
	for pc := 50; pc <= 99; pc++ {
		t := tail(xs, float64(pc)/100)
		if !t.OK() {
			break
		}
		best, ok = t, true
	}
	return best, ok
}

// tally counts attempted and failed operations. A failed operation is one
// that returned an error or whose output failed a check; the first few
// failures are kept for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

const keptErrors = 5

// add records one attempted operation, failed when err is non-nil.
func (t *tally) add(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < keptErrors {
		t.errs = append(t.errs, err.Error())
	}
}

// merge folds another tally into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < keptErrors {
			t.errs = append(t.errs, e)
		}
	}
}

// failedFrac is the share of attempted operations that failed (0 when
// nothing was attempted).
func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
