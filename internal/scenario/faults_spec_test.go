package scenario

import (
	"math"
	"strings"
	"testing"
)

// The faults block is content when non-zero, but its absence and an all-zero
// block must canonicalise to the same hash — adding the feature may not
// rename any existing scenario.
func TestFaultsBlockIDSemantics(t *testing.T) {
	base := Default(100, 42)
	zeroed := base
	zeroed.Faults = &Faults{}
	if zeroed.ID() != base.ID() {
		t.Fatalf("all-zero faults block changed the ID: %s vs %s", zeroed.ID(), base.ID())
	}
	faulty := base
	faulty.Faults = &Faults{DropoutRate: 0.02}
	if faulty.ID() == base.ID() {
		t.Fatal("non-zero faults block did not change the ID")
	}
}

func TestFaultsBlockLowering(t *testing.T) {
	spec := Default(100, 42)
	if !spec.CommunityConfig().Faults.IsZero() {
		t.Fatal("spec without faults block lowered to a faulty engine")
	}
	spec.Faults = &Faults{DropoutRate: 0.1, StalePriceRate: 0.05, PVOutageRate: 0.02, PVOutageSlots: 3}
	cc := spec.CommunityConfig()
	if cc.Faults.Seed != spec.Seed {
		t.Fatalf("fault seed %d, want scenario seed %d", cc.Faults.Seed, spec.Seed)
	}
	if cc.Faults.DropoutRate != 0.1 || cc.Faults.StalePriceRate != 0.05 ||
		cc.Faults.PVOutageRate != 0.02 || cc.Faults.PVOutageSlots != 3 {
		t.Fatalf("fault lowering lost values: %+v", cc.Faults)
	}
	opts, err := spec.CoreOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Community.Faults != cc.Faults {
		t.Fatalf("CoreOptions lowering diverged: %+v vs %+v", opts.Community.Faults, cc.Faults)
	}
}

func TestFaultsBlockValidation(t *testing.T) {
	spec := Default(100, 42)
	spec.Faults = &Faults{DropoutRate: 1.5}
	if err := spec.Validate(); err == nil {
		t.Error("out-of-range dropout rate accepted")
	}
	spec.Faults = &Faults{SpikeKW: -1, CorruptRate: 0.1}
	if err := spec.Validate(); err == nil {
		t.Error("negative spike magnitude accepted")
	}
	spec.Faults = &Faults{DropoutRate: math.NaN()}
	if err := spec.Validate(); err == nil {
		t.Error("NaN rate accepted")
	}
}

func TestValidateRejectsNonFiniteSpec(t *testing.T) {
	cases := map[string]func(*Spec){
		"NaN sell-back": func(s *Spec) { s.Tariff.SellBackW = math.NaN() },
		"Inf sigma":     func(s *Spec) { s.PV.ForecastSigma = math.Inf(1) },
		"NaN noise":     func(s *Spec) { s.PV.MeasurementNoise = math.NaN() },
		"NaN tau":       func(s *Spec) { s.Detector.FlagTau = math.NaN() },
		"NaN delta":     func(s *Spec) { s.Detector.DeltaPAR = math.NaN() },
		"NaN calib":     func(s *Spec) { s.Detector.CalibFrac = math.NaN() },
		"NaN hack prob": func(s *Spec) { s.Campaign.HackProb = math.NaN() },
		"NaN factor":    func(s *Spec) { s.Attack.Kind = "scale"; s.Attack.Factor = math.NaN() },
	}
	for name, mutate := range cases {
		spec := Default(100, 1)
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a non-finite spec", name)
		}
	}
}

// A spec with a faults block survives the save/load cycle with the block
// intact; one without the block stays without it (omitempty).
func TestFaultsBlockRoundTrip(t *testing.T) {
	spec := Default(100, 42)
	spec.Faults = &Faults{DropoutRate: 0.02, SpikeKW: 2}
	var buf strings.Builder
	if err := spec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"faults\"") {
		t.Fatal("faults block missing from the encoding")
	}
	back, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Faults == nil || *back.Faults != *spec.Faults {
		t.Fatalf("faults block changed in round trip: %+v", back.Faults)
	}

	plain := Default(100, 42)
	buf.Reset()
	if err := plain.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"faults\"") {
		t.Fatal("absent faults block serialized anyway")
	}
}
