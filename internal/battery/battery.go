// Package battery models the home rechargeable battery of Section 2.2.
//
// The paper's battery state equation (Eqn 1) is
//
//	bₙʰ⁺¹ = bₙʰ + θₙʰ + yₙʰ − lₙʰ
//
// with 0 ≤ bₙʰ ≤ Bₙ: whatever a customer generates (θ) plus trades with the
// grid (y, positive = purchase) and does not consume (l) lands in the
// battery. A storage *trajectory* b over the horizon therefore determines the
// trading vector y given l and θ — which is exactly how the cross-entropy
// optimizer searches: it samples trajectories and derives the implied trades.
package battery

import (
	"errors"
	"fmt"
)

// Battery holds the physical parameters of one customer's storage.
type Battery struct {
	// Capacity is Bₙ, the maximum stored energy in kWh.
	Capacity float64
}

// New returns a battery with the given capacity.
func New(capacity float64) Battery {
	return Battery{Capacity: capacity}
}

// Validate checks the parameter ranges.
func (b Battery) Validate() error {
	if b.Capacity < 0 {
		return fmt.Errorf("battery: negative capacity %v", b.Capacity)
	}
	return nil
}

// ErrTrajectory is wrapped by CheckTrajectory failures.
var ErrTrajectory = errors.New("battery: invalid storage trajectory")

// CheckTrajectory validates a storage trajectory b[0..H] (H+1 points: state
// before each slot plus the terminal state) against the capacity bounds
// 0 ≤ bₙʰ ≤ Bₙ.
func (b Battery) CheckTrajectory(traj []float64) error {
	if len(traj) < 2 {
		return fmt.Errorf("%w: need at least 2 points, got %d", ErrTrajectory, len(traj))
	}
	for i, v := range traj {
		if v < -1e-9 || v > b.Capacity+1e-9 {
			return fmt.Errorf("%w: b[%d]=%v outside [0, %v]", ErrTrajectory, i, v, b.Capacity)
		}
	}
	return nil
}

// ImpliedTrading derives the per-slot grid trading vector yₙʰ from a storage
// trajectory, the load lₙʰ and the renewable generation θₙʰ by inverting
// Eqn 1: yₙʰ = bₙʰ⁺¹ − bₙʰ − θₙʰ + lₙʰ. A positive entry is a purchase from
// the grid, a negative entry a net-metering sale. traj must have len(load)+1
// points.
func ImpliedTrading(traj, load, gen []float64) ([]float64, error) {
	h := len(load)
	if len(gen) != h {
		return nil, fmt.Errorf("battery: gen length %d != load length %d", len(gen), h)
	}
	if len(traj) != h+1 {
		return nil, fmt.Errorf("battery: trajectory length %d != horizon+1 (%d)", len(traj), h+1)
	}
	y := make([]float64, h)
	for t := 0; t < h; t++ {
		y[t] = traj[t+1] - traj[t] - gen[t] + load[t]
	}
	return y, nil
}

// FlatTrajectory returns a constant trajectory at the given state with H+1
// points — the "no battery activity" baseline.
func FlatTrajectory(state float64, horizon int) []float64 {
	traj := make([]float64, horizon+1)
	for i := range traj {
		traj[i] = state
	}
	return traj
}
