package household

import (
	"testing"

	"nmdetect/internal/appliance"
	"nmdetect/internal/battery"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
)

func TestDefaultGeneratorProducesValidCommunity(t *testing.T) {
	g := DefaultGenerator()
	customers, err := g.Generate(50, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(customers) != 50 {
		t.Fatalf("got %d customers", len(customers))
	}
	for _, c := range customers {
		if err := c.Validate(g.Horizon); err != nil {
			t.Fatalf("customer %d invalid: %v", c.ID, err)
		}
		if len(c.Appliances) == 0 {
			t.Fatalf("customer %d has no appliances", c.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := DefaultGenerator()
	a, err := g.Generate(10, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(10, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Appliances) != len(b[i].Appliances) {
			t.Fatalf("customer %d appliance count differs", i)
		}
		if a[i].Panel.CapacityKW != b[i].Panel.CapacityKW {
			t.Fatalf("customer %d panel differs", i)
		}
		if a[i].Battery.Capacity != b[i].Battery.Capacity {
			t.Fatalf("customer %d battery differs", i)
		}
		for j := range a[i].Appliances {
			x, y := a[i].Appliances[j], b[i].Appliances[j]
			if x.Name != y.Name || x.Energy != y.Energy || x.Start != y.Start || x.Deadline != y.Deadline {
				t.Fatalf("customer %d appliance %d differs: %+v vs %+v", i, j, x, y)
			}
		}
	}
}

func TestGenerateRejectsBadInputs(t *testing.T) {
	g := DefaultGenerator()
	if _, err := g.Generate(0, rng.New(1)); err == nil {
		t.Fatal("zero community accepted")
	}
	g.Horizon = 12
	if _, err := g.Generate(1, rng.New(1)); err == nil {
		t.Fatal("sub-day horizon accepted")
	}
}

func TestPVParticipationRate(t *testing.T) {
	g := DefaultGenerator()
	g.PVProb = 0.5
	customers, err := g.Generate(400, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	withPV := 0
	for _, c := range customers {
		if c.HasPV() {
			withPV++
			if c.Panel.CapacityKW < g.PVCapLo || c.Panel.CapacityKW > g.PVCapHi {
				t.Fatalf("panel capacity %v outside [%v,%v]", c.Panel.CapacityKW, g.PVCapLo, g.PVCapHi)
			}
		} else if c.HasBattery() {
			t.Fatal("battery without PV")
		}
	}
	frac := float64(withPV) / 400
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("PV fraction %v far from 0.5", frac)
	}
}

func TestCustomerHelpers(t *testing.T) {
	c := &Customer{
		ID:       3,
		BaseLoad: make([]float64, 24),
		Appliances: []*appliance.Appliance{
			{Name: "a", Levels: []float64{1}, Energy: 2, Start: 0, Deadline: 3},
			{Name: "b", Levels: []float64{1}, Energy: 3, Start: 0, Deadline: 3},
		},
	}
	c.BaseLoad[5] = 0.7
	if c.TotalTaskEnergy() != 5 {
		t.Fatalf("TotalTaskEnergy = %v", c.TotalTaskEnergy())
	}
	if c.BaseLoadAt(5) != 0.7 || c.BaseLoadAt(29) != 0.7 {
		t.Fatal("BaseLoadAt does not tile across days")
	}
	if c.HasPV() || c.HasBattery() {
		t.Fatal("zero-capacity PV/battery reported present")
	}
	c.Panel = solar.Panel{CapacityKW: 5, Orientation: 1}
	c.Battery = battery.New(10)
	if !c.HasPV() || !c.HasBattery() {
		t.Fatal("PV/battery not reported present")
	}
}

func TestCustomerValidateRejects(t *testing.T) {
	valid := func() *Customer {
		return &Customer{
			ID:       0,
			BaseLoad: make([]float64, 24),
			Panel:    solar.Panel{CapacityKW: 1, Orientation: 1},
			Battery:  battery.New(5),
		}
	}
	c := valid()
	c.BaseLoad = make([]float64, 12)
	if err := c.Validate(24); err == nil {
		t.Fatal("short base load accepted")
	}
	c = valid()
	c.BaseLoad[3] = -1
	if err := c.Validate(24); err == nil {
		t.Fatal("negative base load accepted")
	}
	c = valid()
	c.Appliances = []*appliance.Appliance{{Name: "bad", Levels: nil, Energy: 1, Start: 0, Deadline: 1}}
	if err := c.Validate(24); err == nil {
		t.Fatal("invalid appliance accepted")
	}
	c = valid()
	c.Panel.Orientation = 2
	if err := c.Validate(24); err == nil {
		t.Fatal("invalid panel accepted")
	}
}

func TestGeneratedAppliancesStayInHorizon(t *testing.T) {
	g := DefaultGenerator()
	customers, err := g.Generate(100, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range customers {
		for _, a := range c.Appliances {
			if a.Deadline >= g.Horizon || a.Start < 0 || a.Start > a.Deadline {
				t.Fatalf("customer %d appliance %q window [%d,%d] escapes horizon", c.ID, a.Name, a.Start, a.Deadline)
			}
			if !a.Feasible() {
				t.Fatalf("customer %d appliance %q infeasible", c.ID, a.Name)
			}
		}
	}
}

func TestCommunityPVTraces(t *testing.T) {
	g := DefaultGenerator()
	customers, err := g.Generate(20, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := CommunityPVTraces(customers, solar.DefaultModel(), 2, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 20 {
		t.Fatalf("trace count = %d", len(traces))
	}
	for i, tr := range traces {
		if len(tr) != 48 {
			t.Fatalf("trace %d length = %d", i, len(tr))
		}
		sum := 0.0
		for _, v := range tr {
			if v < 0 {
				t.Fatalf("negative generation in trace %d", i)
			}
			sum += v
		}
		if customers[i].HasPV() && sum == 0 {
			t.Errorf("PV customer %d generated nothing over 2 days", i)
		}
		if !customers[i].HasPV() && sum != 0 {
			t.Errorf("non-PV customer %d generated energy", i)
		}
	}
}

func TestGenerateCommunityScale(t *testing.T) {
	// The paper's community: 500 customers. Must generate quickly and validly.
	g := DefaultGenerator()
	customers, err := g.Generate(500, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	totalAppliances := 0
	for _, c := range customers {
		totalAppliances += len(c.Appliances)
	}
	// Expected ~7 appliances per home from catalog probabilities.
	if avg := float64(totalAppliances) / 500; avg < 4 || avg > 10 {
		t.Fatalf("average appliances per home = %v, outside sanity band", avg)
	}
}
