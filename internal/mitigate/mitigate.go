// Package mitigate implements the meter-side defense the paper's framework
// implies but leaves to future work: once the utility-side pipeline can
// predict the guideline price accurately (Section 4.1), the same prediction
// can run *inside* the smart meter as a sanity filter — a received price
// that deviates implausibly from the prediction is clamped before the
// scheduler sees it, blunting the attack even before detection and repair.
//
// The filter is deliberately conservative: legitimate prices move with
// demand and weather, so it only intervenes on gross violations (a zeroed
// window, a large scale factor), and it reports what it touched so the
// long-term detector still receives the tamper evidence.
package mitigate

import (
	"errors"
	"fmt"

	"nmdetect/internal/timeseries"
)

// Filter is a meter-side guideline-price sanitizer.
type Filter struct {
	// MaxRatio bounds how far above the prediction a slot may price
	// (received > MaxRatio·predicted is clamped).
	MaxRatio float64
	// MinRatio bounds how far below the prediction a slot may price
	// (received < MinRatio·predicted is clamped) — the zero-price attack
	// lives here.
	MinRatio float64
	// AbsFloor is the minimum credible price; anything below it is treated
	// as tampered regardless of the prediction.
	AbsFloor float64
}

// DefaultFilter returns a permissive configuration: it tolerates ±2.5× the
// predicted price (normal demand/weather swings stay well inside) and
// rejects prices below a tenth of a cent.
func DefaultFilter() Filter {
	return Filter{MaxRatio: 2.5, MinRatio: 0.4, AbsFloor: 0.001}
}

// Validate checks the filter's parameter ranges.
func (f Filter) Validate() error {
	if f.MinRatio <= 0 || f.MaxRatio <= f.MinRatio {
		return fmt.Errorf("mitigate: ratio band [%v, %v] invalid", f.MinRatio, f.MaxRatio)
	}
	if f.AbsFloor < 0 {
		return fmt.Errorf("mitigate: negative absolute floor %v", f.AbsFloor)
	}
	return nil
}

// Sanitize checks each received slot against the prediction and clamps
// implausible values to the nearest band edge. It returns the sanitized
// price and the indices of clamped slots (empty when nothing was touched —
// callers use the list as tamper evidence).
func (f Filter) Sanitize(received, predicted timeseries.Series) (timeseries.Series, []int, error) {
	if err := f.Validate(); err != nil {
		return nil, nil, err
	}
	if len(received) != len(predicted) {
		return nil, nil, fmt.Errorf("mitigate: received %d slots, predicted %d", len(received), len(predicted))
	}
	if len(received) == 0 {
		return nil, nil, errors.New("mitigate: empty price")
	}
	out := received.Clone()
	var touched []int
	for h := range out {
		lo := f.MinRatio * predicted[h]
		hi := f.MaxRatio * predicted[h]
		if lo < f.AbsFloor {
			lo = f.AbsFloor
		}
		switch {
		case out[h] < lo:
			out[h] = lo
			touched = append(touched, h)
		case out[h] > hi:
			out[h] = hi
			touched = append(touched, h)
		}
	}
	return out, touched, nil
}
