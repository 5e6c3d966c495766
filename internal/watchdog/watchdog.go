// Package watchdog provides the numerical-health checks shared by the
// iterative kernels (game best-response sweeps and cross-entropy
// iterations).
//
// The contract (DESIGN.md "Watchdog & retry contract"): a kernel checks its
// iterates for finiteness at every sweep/iteration boundary and tracks its
// fixed-point gap with a Monitor. On a health failure the kernel restores the
// last-good iterate and retries a bounded number of times; if the failure
// persists it returns an error wrapping ErrDiverged so callers can
// distinguish numerical divergence (bad inputs, corrupted data) from
// programming errors. Healthy runs take the exact code path they took before
// the watchdogs existed, so results stay bitwise identical.
package watchdog

import (
	"errors"
	"fmt"
	"math"
)

// ErrDiverged reports that an iterative kernel left the healthy numerical
// region (non-finite iterate, or a fixed-point gap that keeps growing) and
// exhausted its retry budget. Test with errors.Is.
var ErrDiverged = errors.New("iteration diverged")

// Retries is the shared bounded-retry budget: how many times a kernel
// restores its last-good iterate and tries again before giving up.
const Retries = 2

// AllFinite reports whether every value in every slice is finite.
func AllFinite(slices ...[]float64) bool {
	for _, s := range slices {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// Monitor watches a scalar convergence gap across iterations. It reports
// divergence when the gap is non-finite, or when it has exceeded Factor times
// the best gap seen so far for more than Patience consecutive iterations —
// plateaus and bounded oscillation (block-Jacobi schedules oscillate
// legitimately) never trigger it; only sustained growth does.
type Monitor struct {
	// Factor is the growth ratio over the best-seen gap considered divergent.
	Factor float64
	// Patience is the number of consecutive divergent observations tolerated.
	Patience int

	best    float64
	bad     int
	started bool
}

// NewMonitor returns a Monitor with the given growth factor (> 1) and
// patience (>= 0).
func NewMonitor(factor float64, patience int) *Monitor {
	return &Monitor{Factor: factor, Patience: patience}
}

// Observe ingests one iteration's gap and returns an error wrapping
// ErrDiverged if the trajectory has left the healthy region.
func (m *Monitor) Observe(gap float64) error {
	if math.IsNaN(gap) || math.IsInf(gap, 0) {
		return fmt.Errorf("watchdog: non-finite convergence gap %v: %w", gap, ErrDiverged)
	}
	if !m.started || gap < m.best {
		m.best = gap
		m.started = true
		m.bad = 0
		return nil
	}
	// A zero best gap means the iteration already hit a fixed point; any
	// further movement is oscillation, not divergence, unless it is huge in
	// absolute terms — use a tiny floor so the ratio test stays meaningful.
	floor := m.best
	if floor < 1e-12 {
		floor = 1e-12
	}
	if gap > m.Factor*floor {
		m.bad++
		if m.bad > m.Patience {
			return fmt.Errorf("watchdog: gap %v grew past %gx best %v for %d iterations: %w",
				gap, m.Factor, m.best, m.bad, ErrDiverged)
		}
		return nil
	}
	m.bad = 0
	return nil
}

// Reset clears the monitor's trajectory (for reuse across retries).
func (m *Monitor) Reset() {
	m.best = 0
	m.bad = 0
	m.started = false
}
