package attack

import (
	"testing"

	"nmdetect/internal/rng"
	"nmdetect/internal/timeseries"
)

func price24() timeseries.Series {
	p := make(timeseries.Series, 24)
	for i := range p {
		p[i] = 0.05 + 0.01*float64(i%12)
	}
	return p
}

func TestZeroWindow(t *testing.T) {
	p := price24()
	atk := ZeroWindow{From: 16, To: 17}
	out := atk.Apply(p)
	for h := range out {
		if h >= 16 && h <= 17 {
			if out[h] != 0 {
				t.Fatalf("slot %d not zeroed", h)
			}
		} else if out[h] != p[h] {
			t.Fatalf("slot %d modified", h)
		}
	}
	// Input untouched.
	if p[16] == 0 {
		t.Fatal("Apply mutated its input")
	}
	if atk.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestZeroWindowOutOfRange(t *testing.T) {
	p := price24()
	out := ZeroWindow{From: -5, To: 40}.Apply(p)
	for h := range out {
		if out[h] != 0 {
			t.Fatalf("slot %d not zeroed", h)
		}
	}
}

func TestScaleWindow(t *testing.T) {
	p := price24()
	out := ScaleWindow{From: 2, To: 4, Factor: 0.5}.Apply(p)
	for h := 2; h <= 4; h++ {
		if out[h] != p[h]*0.5 {
			t.Fatalf("slot %d = %v, want %v", h, out[h], p[h]*0.5)
		}
	}
	if out[5] != p[5] {
		t.Fatal("slot outside window modified")
	}
}

func TestInvert(t *testing.T) {
	p := price24()
	out := Invert{}.Apply(p)
	mx, _ := p.Max()
	mn, _ := p.Min()
	// Cheapest original slot becomes most expensive and vice versa.
	_, origMinIdx := p.Min()
	_, newMaxIdx := out.Max()
	if origMinIdx != newMaxIdx {
		t.Fatalf("inversion did not flip extremes: %d vs %d", origMinIdx, newMaxIdx)
	}
	for h := range p {
		if out[h] != mx+mn-p[h] {
			t.Fatalf("slot %d wrong", h)
		}
	}
	if len(Invert{}.Apply(timeseries.Series{})) != 0 {
		t.Fatal("empty series mishandled")
	}
}

func TestNone(t *testing.T) {
	p := price24()
	out := None{}.Apply(p)
	for h := range p {
		if out[h] != p[h] {
			t.Fatal("None modified the price")
		}
	}
}

func TestNewCampaignValidation(t *testing.T) {
	atk := ZeroWindow{From: 16, To: 17}
	cases := []struct {
		n                int
		prob             float64
		batchLo, batchHi int
		atk              Attack
	}{
		{0, 0.5, 1, 2, atk},
		{10, -0.1, 1, 2, atk},
		{10, 1.1, 1, 2, atk},
		{10, 0.5, 0, 2, atk},
		{10, 0.5, 3, 2, atk},
		{10, 0.5, 1, 2, nil},
	}
	for i, c := range cases {
		if _, err := NewCampaign(c.n, c.prob, c.batchLo, c.batchHi, c.atk); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewCampaign(10, 0.5, 1, 2, atk); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignGrowsAndRepairs(t *testing.T) {
	c, err := NewCampaign(100, 1.0, 3, 3, ZeroWindow{From: 16, To: 17})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	if c.Count() != 0 {
		t.Fatal("campaign starts with hacked meters")
	}
	total := 0
	for step := 0; step < 10; step++ {
		newly := c.Step(src)
		total += newly
		if c.Count() != total {
			t.Fatalf("count %d != accumulated %d", c.Count(), total)
		}
	}
	if total != 30 {
		t.Fatalf("10 certain steps of batch 3 hacked %d meters", total)
	}
	// Hacked set matches count.
	n := 0
	for i := 0; i < 100; i++ {
		if c.Hacked(i) {
			n++
		}
	}
	if n != c.Count() {
		t.Fatalf("hacked set size %d != count %d", n, c.Count())
	}
	if repaired := c.Repair(); repaired != 30 {
		t.Fatalf("Repair returned %d", repaired)
	}
	if c.Count() != 0 {
		t.Fatal("Repair left hacked meters")
	}
}

func TestCampaignSaturates(t *testing.T) {
	c, err := NewCampaign(5, 1.0, 10, 10, None{})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	c.Step(src)
	if c.Count() != 5 {
		t.Fatalf("count %d, want saturation at 5", c.Count())
	}
	// Further steps cannot exceed N.
	c.Step(src)
	if c.Count() != 5 {
		t.Fatalf("count %d after saturation", c.Count())
	}
}

func TestCampaignZeroProbNeverHacks(t *testing.T) {
	c, err := NewCampaign(10, 0, 1, 1, None{})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	for i := 0; i < 100; i++ {
		if c.Step(src) != 0 {
			t.Fatal("zero-probability campaign hacked a meter")
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	mk := func(seed uint64) []int {
		c, _ := NewCampaign(50, 0.5, 1, 4, None{})
		src := rng.New(seed)
		counts := make([]int, 20)
		for i := range counts {
			c.Step(src)
			counts[i] = c.Count()
		}
		return counts
	}
	a, b := mk(9), mk(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}
