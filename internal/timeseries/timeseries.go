// Package timeseries provides the time-series container and transformations
// shared by the forecaster, the detectors and the experiment harness.
//
// A Series is a plain []float64 indexed by time slot (the paper divides each
// day into H = 24 slots). The helpers here are the summary statistics (sum,
// mean, extremes, PAR) and the copy, slice and scale operations the rest of
// the pipeline applies to traces.
package timeseries

import (
	"fmt"
	"math"
)

// Series is a sequence of values indexed by time slot.
type Series []float64

// Clone returns a deep copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Sum returns the sum of all values.
func (s Series) Sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// Mean returns the arithmetic mean. It returns 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s))
}

// Max returns the maximum value and its index. It panics on an empty series.
func (s Series) Max() (float64, int) {
	if len(s) == 0 {
		panic("timeseries: Max of empty series")
	}
	best, idx := s[0], 0
	for i, v := range s {
		if v > best {
			best, idx = v, i
		}
	}
	return best, idx
}

// Min returns the minimum value and its index. It panics on an empty series.
func (s Series) Min() (float64, int) {
	if len(s) == 0 {
		panic("timeseries: Min of empty series")
	}
	best, idx := s[0], 0
	for i, v := range s {
		if v < best {
			best, idx = v, i
		}
	}
	return best, idx
}

// ScaleBy returns s with every element multiplied by alpha.
func (s Series) ScaleBy(alpha float64) Series {
	out := make(Series, len(s))
	for i := range s {
		out[i] = alpha * s[i]
	}
	return out
}

// Slice returns the sub-series [from, to). Bounds are checked.
func (s Series) Slice(from, to int) Series {
	if from < 0 || to > len(s) || from > to {
		panic(fmt.Sprintf("timeseries: Slice [%d,%d) of len %d", from, to, len(s)))
	}
	return s[from:to].Clone()
}

// PAR returns the peak-to-average ratio of the series, the grid-stability
// metric the paper's attacks inflate and its detectors watch. It panics on an
// empty series and returns +Inf when the mean is zero but the peak is not.
func (s Series) PAR() float64 {
	peak, _ := s.Max()
	mean := s.Mean()
	if mean == 0 {
		if peak == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return peak / mean
}
