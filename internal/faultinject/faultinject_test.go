package faultinject

import (
	"math"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(7)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad := []Config{
		{DropoutRate: -0.1},
		{DropoutRate: 1.5},
		{CorruptRate: math.NaN()},
		{StalePriceRate: 2},
		{PVOutageRate: math.Inf(1)},
		{SpikeKW: math.NaN()},
		{SpikeKW: -1},
		{SpikeKW: math.Inf(1)},
		{PVOutageSlots: -1},
		{PVOutageSlots: 25},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v unexpectedly valid", i, c)
		}
	}
}

func TestIsZero(t *testing.T) {
	if !(Config{Seed: 9, SpikeKW: 3, PVOutageSlots: 2}).IsZero() {
		t.Fatal("config with only magnitudes should be zero (no rates)")
	}
	if (Config{DropoutRate: 0.01}).IsZero() {
		t.Fatal("config with a rate should not be zero")
	}
}

func TestPlanDeterministic(t *testing.T) {
	p1, err := NewPlan(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPlan(DefaultConfig(42))
	for day := 0; day < 5; day++ {
		a := p1.Day(day, 12)
		b := p2.Day(day, 12)
		if a.StalePrice != b.StalePrice {
			t.Fatalf("day %d: stale price mismatch", day)
		}
		for i := range a.Readings {
			if a.PVOutage[i] != b.PVOutage[i] {
				t.Fatalf("day %d meter %d: pv outage mismatch", day, i)
			}
			for h := range a.Readings[i] {
				if math.Float64bits(a.Readings[i][h]) != math.Float64bits(b.Readings[i][h]) {
					t.Fatalf("day %d meter %d slot %d: %v != %v",
						day, i, h, a.Readings[i][h], b.Readings[i][h])
				}
			}
		}
	}
}

func TestPlanIndependentOfQueryOrder(t *testing.T) {
	p, err := NewPlan(DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	forward := p.Day(3, 8)
	// Querying other days between identical queries must not change day 3.
	p.Day(0, 8)
	p.Day(9, 8)
	again := p.Day(3, 8)
	for i := range forward.Readings {
		for h := range forward.Readings[i] {
			if math.Float64bits(forward.Readings[i][h]) != math.Float64bits(again.Readings[i][h]) {
				t.Fatalf("day 3 changed after unrelated queries (meter %d slot %d)", i, h)
			}
		}
	}
}

func TestPlanRatesRealized(t *testing.T) {
	cfg := Config{
		Seed:        5,
		DropoutRate: 0.10,
		CorruptRate: 0.05,
		SpikeKW:     2,
	}
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var missing, spiked, total int
	for day := 0; day < 20; day++ {
		df := p.Day(day, 50)
		m, s := countFaults(df)
		missing += m
		spiked += s
		total += 50 * 24
	}
	// Expected missing ≈ dropout + 1/4 of corruptions ≈ 11.1%; spikes ≈ 3.4%.
	missFrac := float64(missing) / float64(total)
	spikeFrac := float64(spiked) / float64(total)
	if missFrac < 0.08 || missFrac > 0.15 {
		t.Errorf("missing fraction %.4f far from configured rate", missFrac)
	}
	if spikeFrac < 0.02 || spikeFrac > 0.06 {
		t.Errorf("spike fraction %.4f far from configured rate", spikeFrac)
	}
	// Spikes must be finite and bounded by SpikeKW.
	df := p.Day(0, 50)
	for i, row := range df.Readings {
		for h, v := range row {
			if v != 0 && !math.IsNaN(v) {
				if math.IsInf(v, 0) || math.Abs(v) > cfg.SpikeKW {
					t.Fatalf("meter %d slot %d: spike %v out of bounds", i, h, v)
				}
			}
		}
	}
}

func TestZeroConfigPlanInjectsNothing(t *testing.T) {
	p, err := NewPlan(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		df := p.Day(day, 10)
		if df.StalePrice {
			t.Fatal("zero config produced stale price")
		}
		m, s := countFaults(df)
		if m != 0 || s != 0 {
			t.Fatalf("zero config produced %d missing, %d spiked", m, s)
		}
		for i, w := range df.PVOutage {
			if w.From >= 0 {
				t.Fatalf("zero config produced pv outage for meter %d", i)
			}
		}
	}
}

func TestScale(t *testing.T) {
	base := DefaultConfig(1)
	s := base.Scale(2)
	if s.DropoutRate != base.DropoutRate*2 || s.PVOutageRate != base.PVOutageRate*2 {
		t.Fatal("scale did not multiply rates")
	}
	if s.SpikeKW != base.SpikeKW || s.Seed != base.Seed || s.PVOutageSlots != base.PVOutageSlots {
		t.Fatal("scale changed magnitudes or seed")
	}
	capped := base.Scale(1e9)
	if capped.DropoutRate > 1 || capped.StalePriceRate > 1 {
		t.Fatal("scale did not clamp rates to 1")
	}
	zero := base.Scale(0)
	if !zero.IsZero() {
		t.Fatal("scale(0) should be a zero config")
	}
}

func TestWindowActive(t *testing.T) {
	w := Window{From: 5, To: 8}
	for h := 0; h < 24; h++ {
		want := h >= 5 && h <= 8
		if w.Active(h) != want {
			t.Fatalf("slot %d: active=%v want %v", h, w.Active(h), want)
		}
	}
	none := Window{From: -1, To: -1}
	for h := 0; h < 24; h++ {
		if none.Active(h) {
			t.Fatal("empty window active")
		}
	}
}

// countFaults returns the number of missing and spiked readings in df.
func countFaults(df *DayFaults) (missing, spiked int) {
	for _, row := range df.Readings {
		for _, v := range row {
			switch {
			case math.IsNaN(v):
				missing++
			case v != 0:
				spiked++
			}
		}
	}
	return missing, spiked
}
