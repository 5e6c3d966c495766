package main

import (
	"fmt"
	"math"

	"nmdetect/internal/rng"
	"nmdetect/internal/scenario"
)

// maxCandidates bounds the search in stratify. A 128-meter community hits
// its expected battery count about one draw in thirteen, so two such
// communities together need about 170 draws on average; 20000 draws fail
// with probability below 1e-50.
const maxCandidates = 20000

// stratify maps a workload seed to a scenario seed whose communities each
// have exactly the expected number of battery homes. Battery homes carry
// the cross-entropy battery solve, and a day's cost grows with their count
// (about 40 ms per home on a 48-meter batch day), while the household
// generator draws each home independently: unpinned, the count alone
// spreads batch throughput by a third across seeds. Pinning it makes every
// seed the same amount of work, with weather, prices, appliances and the
// attack campaign still drawn from the seed.
//
// Candidates are derived from seed under label, in order, so the mapping
// is deterministic. members lowers a candidate to the community specs it
// runs.
func stratify(seed uint64, label string, members func(candidate uint64) []scenario.Spec) (uint64, error) {
	src := rng.New(seed)
	for k := 0; k < maxCandidates; k++ {
		cand := src.Derive(fmt.Sprintf("%s-%d", label, k)).State()
		ok := true
		for _, s := range members(cand) {
			have, want, err := batteryHomes(s)
			if err != nil {
				return 0, err
			}
			if have != want {
				ok = false
				break
			}
		}
		if ok {
			return cand, nil
		}
	}
	return 0, fmt.Errorf("no %s scenario seed with the expected battery homes in %d candidates", label, maxCandidates)
}

// batteryHomes counts the battery homes of the community s describes and
// the number the household generator's probabilities lead one to expect.
func batteryHomes(s scenario.Spec) (have, want int, err error) {
	e, err := s.NewEngine()
	if err != nil {
		return 0, 0, err
	}
	for _, c := range e.Customers() {
		if c.HasBattery() {
			have++
		}
	}
	g := s.CommunityConfig().Generator
	return have, int(math.Round(float64(s.N) * g.PVProb * g.BatteryProb)), nil
}
