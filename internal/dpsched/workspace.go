package dpsched

import (
	"errors"
	"fmt"
	"math"

	"nmdetect/internal/appliance"
)

// Workspace holds the DP tables and scratch buffers one scheduling call
// needs, so hot paths (the game solver's per-customer best responses) can
// reuse them across calls instead of reallocating per appliance per sweep.
//
// Buffers grow monotonically to the largest (window, target) seen and are
// never shrunk. A Workspace is NOT safe for concurrent use; give each
// goroutine its own. The zero value is ready to use.
//
// Contract: every Workspace method computes bitwise-identical results to its
// allocating counterpart — same iteration order, same floating-point
// operations — which the dpsched property tests enforce case by case.
type Workspace struct {
	// value[(w)*(target+1)+e] is the flattened DP value table V(w, e);
	// choice is the matching back-pointer table.
	value  []float64
	choice []int
	// lvlSteps/lvlPower are the deduplicated power levels on the quantized
	// energy lattice, kept as parallel arrays rather than a []struct so the
	// innermost DP scan walks one densely packed int slice (the feasibility
	// test `steps > e` rejects most levels without ever touching the power).
	lvlSteps []int
	lvlPower []float64
	// load and sched back ScheduleAllLoad: the accumulated schedulable load
	// and the per-appliance scratch schedule.
	load  []float64
	sched []float64
}

// growFloats returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified; callers overwrite.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// Schedule is the workspace-backed equivalent of the package-level Schedule:
// same arguments, same results (bitwise), but the DP tables live in the
// workspace. The returned schedule is freshly allocated and owned by the
// caller; only the internal tables are reused.
func (ws *Workspace) Schedule(a *appliance.Appliance, horizon int, cost CostFn) (appliance.Schedule, float64, error) {
	sched := make(appliance.Schedule, horizon)
	c, err := ws.ScheduleInto(sched, a, horizon, cost)
	if err != nil {
		return nil, 0, err
	}
	return sched, c, nil
}

// ScheduleInto computes a minimum-cost schedule for the appliance into dst
// (which must have length horizon; it is zeroed first) and returns the
// optimal cost. This is the allocation-free core every Schedule variant in
// the package lowers to.
func (ws *Workspace) ScheduleInto(dst appliance.Schedule, a *appliance.Appliance, horizon int, cost CostFn) (float64, error) {
	if len(dst) != horizon {
		return 0, fmt.Errorf("dpsched: destination length %d != horizon %d", len(dst), horizon)
	}
	if err := a.Validate(horizon); err != nil {
		return 0, fmt.Errorf("dpsched: %w", err)
	}
	if cost == nil {
		return 0, errors.New("dpsched: nil cost function")
	}
	for i := range dst {
		dst[i] = 0
	}
	if a.Contiguous {
		return ws.scheduleContiguousInto(dst, a, cost)
	}

	q, err := appliance.Quantum(a.Levels)
	if err != nil {
		return 0, fmt.Errorf("dpsched: %w", err)
	}
	target := int(a.Energy/q + 0.5)
	window := a.WindowLen()

	// Level step sizes, deduplicated, including "off". The dedup scans the
	// (tiny) slice instead of using a map, preserving insertion order — the
	// same order the allocating path produced.
	if ws.lvlSteps == nil {
		n := len(a.Levels) + 1
		ws.lvlSteps = make([]int, 0, n)
		ws.lvlPower = make([]float64, 0, n)
	}
	steps := append(ws.lvlSteps[:0], 0)
	power := append(ws.lvlPower[:0], 0)
	for _, p := range a.Levels {
		st := int(p/q + 0.5)
		dup := false
		for _, s := range steps {
			if s == st {
				dup = true
				break
			}
		}
		if !dup {
			steps = append(steps, st)
			power = append(power, p)
		}
	}
	ws.lvlSteps, ws.lvlPower = steps, power

	// Flattened DP tables with row stride target+1. Only the terminal row
	// needs initialization: every interior cell is written exactly once by
	// the backward sweep below.
	stride := target + 1
	ws.value = growFloats(ws.value, (window+1)*stride)
	ws.choice = growInts(ws.choice, window*stride)
	value, choice := ws.value, ws.choice
	inf := math.Inf(1)
	last := window * stride
	for e := 0; e <= target; e++ {
		value[last+e] = inf
	}
	value[last] = 0

	for w := window - 1; w >= 0; w-- {
		h := a.Start + w
		row := w * stride
		// Full-capacity row subslices hoist the bounds proofs out of the
		// per-cell loop: inside it every index is provably < stride.
		cur := value[row : row+stride : row+stride]
		next := value[row+stride : row+2*stride : row+2*stride]
		pick := choice[row : row+stride : row+stride]
		for e := 0; e <= target; e++ {
			best := inf
			bestIdx := -1
			for i, st := range steps {
				if st > e {
					continue
				}
				nv := next[e-st]
				if math.IsInf(nv, 1) {
					continue
				}
				c := cost(h, power[i]) + nv
				if c < best {
					best = c
					bestIdx = i
				}
			}
			cur[e] = best
			pick[e] = bestIdx
		}
	}

	if math.IsInf(value[target], 1) {
		return 0, fmt.Errorf("%w: %q cannot deliver %.3f kWh in window [%d,%d]",
			ErrInfeasible, a.Name, a.Energy, a.Start, a.Deadline)
	}

	e := target
	for w := 0; w < window; w++ {
		idx := choice[w*stride+e]
		if idx < 0 {
			return 0, fmt.Errorf("%w: broken DP back-pointer", ErrInfeasible)
		}
		dst[a.Start+w] = power[idx]
		e -= steps[idx]
	}
	if e != 0 {
		return 0, fmt.Errorf("%w: reconstruction left %d steps", ErrInfeasible, e)
	}
	return value[target], nil
}

// scheduleContiguousInto is the in-place variant of scheduleContiguous: the
// cheapest single consecutive run for a non-preemptible appliance, written
// into dst (already zeroed by ScheduleInto).
func (ws *Workspace) scheduleContiguousInto(dst appliance.Schedule, a *appliance.Appliance, cost CostFn) (float64, error) {
	if a.Energy == 0 {
		return 0, nil
	}
	bestCost := math.Inf(1)
	bestLevel, bestStart, bestDur := 0.0, -1, 0
	for _, l := range a.Levels {
		slots := a.Energy / l
		dur := int(slots + 0.5)
		if dur < 1 || math.Abs(slots-float64(dur)) > 1e-9 || dur > a.WindowLen() {
			continue // this level cannot deliver the energy in whole slots
		}
		for start := a.Start; start+dur-1 <= a.Deadline; start++ {
			total := 0.0
			for h := start; h < start+dur; h++ {
				total += cost(h, l)
			}
			if total < bestCost {
				bestCost, bestLevel, bestStart, bestDur = total, l, start, dur
			}
		}
	}
	if bestStart < 0 {
		return 0, fmt.Errorf("%w: %q has no feasible contiguous run for %.3f kWh in [%d,%d]",
			ErrInfeasible, a.Name, a.Energy, a.Start, a.Deadline)
	}
	for h := bestStart; h < bestStart+bestDur; h++ {
		dst[h] = bestLevel
	}
	return bestCost, nil
}

// ScheduleAllLoad is the allocation-light ScheduleAll variant for callers
// that need only the accumulated load profile, not the per-appliance
// schedules (the game solver's best response discards them). The returned
// slice is owned by the workspace and valid until the next call on it.
func (ws *Workspace) ScheduleAllLoad(apps []*appliance.Appliance, horizon int, makeCost func(current []float64) CostFn) ([]float64, error) {
	ws.load = growFloats(ws.load, horizon)
	ws.sched = growFloats(ws.sched, horizon)
	load := ws.load
	for i := range load {
		load[i] = 0
	}
	for _, a := range apps {
		if _, err := ws.ScheduleInto(ws.sched, a, horizon, makeCost(load)); err != nil {
			return nil, err
		}
		for h, x := range ws.sched {
			load[h] += x
		}
	}
	return load, nil
}
