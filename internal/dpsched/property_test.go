package dpsched

import (
	"math"
	"testing"

	"nmdetect/internal/appliance"
	"nmdetect/internal/rng"
)

// The property suite checks the DP (and the contiguous enumerator) against
// exhaustive brute force on randomized small instances, and checks that a
// persistently reused Workspace is bitwise identical to the allocating
// package-level Schedule. Horizons are kept at <= 6 window slots and <= 3
// levels so the brute force stays exact and exhaustive: (levels+off)^window
// <= 4^6 combinations.

// bruteForcePreemptible enumerates every per-slot level assignment on the
// quantized lattice and returns the minimum cost among assignments whose step
// total is exactly the target. It mirrors the DP's cost convention: every
// window slot is charged, including off slots (cost(h, 0)); slots outside the
// window are free. ok is false when no assignment reaches the target.
func bruteForcePreemptible(a *appliance.Appliance, cost CostFn) (best float64, ok bool) {
	q, err := appliance.Quantum(a.Levels)
	if err != nil {
		return 0, false
	}
	target := int(a.Energy/q + 0.5)
	window := a.WindowLen()

	// Deduplicated levels including off, in the same first-wins order the
	// scheduler uses, so cost ties between equal-step levels resolve the
	// same way.
	type cand struct {
		steps int
		power float64
	}
	cands := []cand{{0, 0}}
	for _, p := range a.Levels {
		st := int(p/q + 0.5)
		dup := false
		for _, c := range cands {
			if c.steps == st {
				dup = true
				break
			}
		}
		if !dup {
			cands = append(cands, cand{st, p})
		}
	}

	best = math.Inf(1)
	choice := make([]int, window)
	var walk func(w, steps int, c float64)
	walk = func(w, steps int, c float64) {
		if steps > target {
			return
		}
		if w == window {
			if steps == target && c < best {
				best = c
				ok = true
			}
			return
		}
		h := a.Start + w
		for i, cd := range cands {
			choice[w] = i
			walk(w+1, steps+cd.steps, c+cost(h, cd.power))
		}
	}
	walk(0, 0, 0)
	return best, ok
}

// bruteForceContiguous enumerates every (level, start) single-run placement
// whose whole-slot duration delivers the energy exactly; only run slots are
// charged (the contiguous path's cost convention).
func bruteForceContiguous(a *appliance.Appliance, cost CostFn) (best float64, ok bool) {
	if a.Energy == 0 {
		return 0, true
	}
	best = math.Inf(1)
	for _, l := range a.Levels {
		slots := a.Energy / l
		dur := int(slots + 0.5)
		if dur < 1 || math.Abs(slots-float64(dur)) > 1e-9 || dur > a.WindowLen() {
			continue
		}
		for start := a.Start; start+dur-1 <= a.Deadline; start++ {
			total := 0.0
			for h := start; h < start+dur; h++ {
				total += cost(h, l)
			}
			if total < best {
				best = total
				ok = true
			}
		}
	}
	return best, ok
}

// randomInstance draws a small appliance plus a positive slot-varying cost
// function. Levels are distinct multiples of 0.1 kW so the quantized lattice
// represents every level exactly (no rounding collisions between distinct
// powers, which the DP would dedup by step count).
func randomInstance(src *rng.Source, horizon int, contiguous bool) (*appliance.Appliance, CostFn) {
	pool := []float64{0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0}
	src.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	levels := append([]float64(nil), pool[:1+src.Intn(3)]...)

	window := 1 + src.Intn(6)
	start := src.Intn(horizon - window + 1)
	a := &appliance.Appliance{
		Name:       "prop",
		Levels:     levels,
		Start:      start,
		Deadline:   start + window - 1,
		Contiguous: contiguous,
	}

	if contiguous {
		l := levels[src.Intn(len(levels))]
		dur := 1 + src.Intn(window)
		a.Energy = l * float64(dur)
	} else {
		q, err := appliance.Quantum(levels)
		if err != nil {
			panic(err)
		}
		maxSteps := 0
		for _, l := range levels {
			if st := int(l/q + 0.5); st > maxSteps {
				maxSteps = st
			}
		}
		// Target may be unreachable on the lattice (e.g. below the smallest
		// level); those cases exercise infeasibility agreement.
		a.Energy = q * float64(src.Intn(maxSteps*window+1))
	}

	prices := make([]float64, horizon)
	for h := range prices {
		prices[h] = 0.5 + 4*src.Float64()
	}
	cost := func(h int, p float64) float64 { return prices[h] * p }
	return a, cost
}

func TestSchedulePropertyMatchesBruteForce(t *testing.T) {
	const cases = 500
	const horizon = 8
	src := rng.New(20260805)
	ws := &Workspace{} // reused across every case: persistence must not leak

	feasible, infeasible := 0, 0
	for k := 0; k < cases; k++ {
		contiguous := k%3 == 0
		a, cost := randomInstance(src.Derive("case"+string(rune('a'+k%26))+string(rune('0'+k/26))), horizon, contiguous)

		var want float64
		var ok bool
		if contiguous {
			want, ok = bruteForceContiguous(a, cost)
		} else {
			want, ok = bruteForcePreemptible(a, cost)
		}
		// Validate can reject before the search does; both mean infeasible
		// for this property as long as brute force agrees.
		if a.Validate(horizon) != nil {
			ok = false
		}

		sched, got, err := Schedule(a, horizon, cost)
		if !ok {
			if err == nil {
				t.Fatalf("case %d (%+v): brute force found no schedule but Schedule returned cost %v", k, a, got)
			}
			infeasible++
			continue
		}
		if err != nil {
			t.Fatalf("case %d (%+v): brute force cost %v but Schedule failed: %v", k, a, want, err)
		}
		feasible++
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("case %d (%+v): Schedule cost %v != brute force %v", k, a, got, want)
		}
		if cerr := a.CheckSchedule(sched); cerr != nil {
			t.Fatalf("case %d (%+v): invalid schedule: %v", k, a, cerr)
		}

		// Workspace variant: bitwise identical schedule and cost.
		wsSched, wsCost, wsErr := ws.Schedule(a, horizon, cost)
		if wsErr != nil {
			t.Fatalf("case %d: workspace variant failed: %v", k, wsErr)
		}
		if math.Float64bits(wsCost) != math.Float64bits(got) {
			t.Fatalf("case %d: workspace cost %v != allocating cost %v (bitwise)", k, wsCost, got)
		}
		for h := range sched {
			if math.Float64bits(wsSched[h]) != math.Float64bits(sched[h]) {
				t.Fatalf("case %d slot %d: workspace schedule %v != allocating %v (bitwise)", k, h, wsSched[h], sched[h])
			}
		}
	}
	// The generator must actually exercise both regimes.
	if feasible < 100 || infeasible < 20 {
		t.Fatalf("property generator degenerate: %d feasible / %d infeasible cases", feasible, infeasible)
	}
}

// TestScheduleAllLoadMatchesScheduleAll pins the allocation-light load-only
// variant to the allocating ScheduleAll, bitwise, on a congestion-coupled
// cost (later appliances see earlier ones through makeCost).
func TestScheduleAllLoadMatchesScheduleAll(t *testing.T) {
	apps := []*appliance.Appliance{
		{Name: "a", Levels: []float64{1.0, 2.0}, Energy: 4, Start: 2, Deadline: 9},
		{Name: "b", Levels: []float64{0.5, 1.0}, Energy: 2, Start: 0, Deadline: 7},
		{Name: "c", Levels: []float64{1.5}, Energy: 3, Start: 5, Deadline: 11, Contiguous: true},
	}
	makeCost := func(current []float64) CostFn {
		base := append([]float64(nil), current...)
		return func(h int, p float64) float64 { return (1 + base[h]) * p }
	}
	_, want, err := ScheduleAll(apps, 12, makeCost)
	if err != nil {
		t.Fatal(err)
	}
	ws := &Workspace{}
	for trial := 0; trial < 3; trial++ { // reuse across trials must not drift
		got, err := ws.ScheduleAllLoad(apps, 12, makeCost)
		if err != nil {
			t.Fatal(err)
		}
		for h := range want {
			if math.Float64bits(got[h]) != math.Float64bits(want[h]) {
				t.Fatalf("trial %d slot %d: ScheduleAllLoad %v != ScheduleAll %v (bitwise)", trial, h, got[h], want[h])
			}
		}
	}
}
