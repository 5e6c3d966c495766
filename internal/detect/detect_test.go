package detect

import (
	"context"
	"math"
	"testing"

	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/loadpred"
	"nmdetect/internal/pomdp"
	"nmdetect/internal/rng"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

func predictor(t *testing.T) *loadpred.Predictor {
	t.Helper()
	g := household.DefaultGenerator()
	customers, err := g.Generate(12, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	q, err := tariff.NewQuadratic(1.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := game.DefaultConfig(q, false)
	cfg.MaxSweeps = 2
	p, err := loadpred.New(customers, cfg, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func duckPrice() timeseries.Series {
	p := make(timeseries.Series, 24)
	for h := range p {
		p[h] = 0.08
		if h >= 17 && h < 21 {
			p[h] = 0.14
		}
	}
	return p
}

func TestSingleEventNoAttack(t *testing.T) {
	d := &SingleEvent{Pred: predictor(t), DeltaPAR: 0.05}
	price := duckPrice()
	res, err := d.Check(context.Background(), price, price.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Attack {
		t.Fatalf("identical prices flagged as attack: %+v", res)
	}
	if res.PredictedPAR != res.ReceivedPAR {
		t.Fatalf("PARs differ on identical prices: %+v", res)
	}
}

func TestSingleEventDetectsZeroWindowAttack(t *testing.T) {
	d := &SingleEvent{Pred: predictor(t), DeltaPAR: 0.05}
	price := duckPrice()
	attacked := price.Clone()
	attacked[16], attacked[17] = 0, 0 // Figure 5's manipulation
	res, err := d.Check(context.Background(), price, attacked)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Attack {
		t.Fatalf("zero-window attack not detected: %+v", res)
	}
	if res.ReceivedPAR <= res.PredictedPAR {
		t.Fatalf("attack did not raise PAR: %+v", res)
	}
}

func TestSingleEventValidation(t *testing.T) {
	d := &SingleEvent{Pred: nil, DeltaPAR: 0.05}
	if _, err := d.Check(context.Background(), duckPrice(), duckPrice()); err == nil {
		t.Error("nil predictor accepted")
	}
	d = &SingleEvent{Pred: predictor(t), DeltaPAR: 0}
	if _, err := d.Check(context.Background(), duckPrice(), duckPrice()); err == nil {
		t.Error("zero threshold accepted")
	}
}

func TestBucketizer(t *testing.T) {
	b, err := NewBucketizer([]int{2, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumBuckets() != 5 {
		t.Fatalf("NumBuckets = %d", b.NumBuckets())
	}
	cases := map[int]int{
		0: 0, 1: 1, 2: 1, 3: 2, 10: 2, 11: 3, 30: 3, 31: 4, 500: 4, -1: 0,
	}
	for count, want := range cases {
		if got := b.Bucket(count); got != want {
			t.Errorf("Bucket(%d) = %d, want %d", count, got, want)
		}
	}
}

func TestBucketizerRejects(t *testing.T) {
	for _, bounds := range [][]int{nil, {}, {0}, {3, 3}, {5, 2}} {
		if _, err := NewBucketizer(bounds); err == nil {
			t.Errorf("bounds %v accepted", bounds)
		}
	}
}

func TestBucketizerRepresentativeRoundTrips(t *testing.T) {
	b, err := NewBucketizer([]int{2, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < b.NumBuckets(); s++ {
		rep := b.Representative(s, 100)
		if got := b.Bucket(rep); got != s {
			t.Errorf("Representative(%d)=%d lands in bucket %d", s, rep, got)
		}
	}
	// Cap below the last bound's midpoint is honored.
	if rep := b.Representative(4, 31); rep != 31 {
		t.Errorf("capped representative = %d", rep)
	}
}

func TestDefaultModelParamsValid(t *testing.T) {
	p := DefaultModelParams(500, 0.02, 0.1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p = DefaultModelParams(10, 0, 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModelParamsValidateRejects(t *testing.T) {
	base := DefaultModelParams(100, 0.02, 0.1)
	cases := []func(*ModelParams){
		func(p *ModelParams) { p.N = 0 },
		func(p *ModelParams) { p.Buckets = Bucketizer{} },
		func(p *ModelParams) { p.HackProb = 1.5 },
		func(p *ModelParams) { p.BatchLo = 0 },
		func(p *ModelParams) { p.BatchHi = p.BatchLo - 1 },
		func(p *ModelParams) { p.FalsePos = -0.1 },
		func(p *ModelParams) { p.FalseNeg = 1.1 },
		func(p *ModelParams) { p.DamagePerMeter = -1 },
		func(p *ModelParams) { p.InspectCost = -1 },
		func(p *ModelParams) { p.Discount = 1 },
		func(p *ModelParams) { p.CalibSamples = 0 },
	}
	for i, mod := range cases {
		p := base
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBuildModelProducesValidPOMDP(t *testing.T) {
	p := DefaultModelParams(100, 0.02, 0.1)
	p.CalibSamples = 1000
	m, err := BuildModel(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Inspection must reset: T[inspect] is state-independent (every row is a
	// fresh campaign step from zero hacked meters, up to MC noise) and keeps
	// essentially all mass at or below the one-batch bucket.
	for s := 0; s < m.NumStates; s++ {
		low := 0.0
		for sp := 0; sp <= m.NumStates/2; sp++ {
			low += m.T[ActionInspect][s][sp]
		}
		if low < 0.99 {
			t.Errorf("state %d: inspect low-bucket mass %v", s, low)
		}
		for sp := 0; sp < m.NumStates; sp++ {
			if math.Abs(m.T[ActionInspect][s][sp]-m.T[ActionInspect][0][sp]) > 0.05 {
				t.Errorf("inspect transition depends on state %d at %d", s, sp)
			}
		}
	}
	// With a clean channel (fp=fn=0), the observation of a state's own
	// representative must fall in that state's bucket.
	clean := DefaultModelParams(100, 0, 0)
	clean.CalibSamples = 200
	mc, err := BuildModel(clean)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < mc.NumStates; s++ {
		if mc.Z[ActionContinue][s][s] < 0.999 {
			t.Errorf("clean channel: Z[%d][%d] = %v", s, s, mc.Z[ActionContinue][s][s])
		}
	}
	// Rewards: inspection costs more than continuing in the same state.
	for s := 0; s < m.NumStates; s++ {
		if m.R[ActionInspect][s] >= m.R[ActionContinue][s] {
			t.Errorf("state %d: inspect reward not below continue", s)
		}
	}
}

func TestBuildModelDeterministic(t *testing.T) {
	p := DefaultModelParams(50, 0.05, 0.1)
	p.CalibSamples = 500
	a, err := BuildModel(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildModel(p)
	if err != nil {
		t.Fatal(err)
	}
	for act := 0; act < 2; act++ {
		for s := 0; s < a.NumStates; s++ {
			for sp := 0; sp < a.NumStates; sp++ {
				if a.T[act][s][sp] != b.T[act][s][sp] {
					t.Fatal("calibration not deterministic")
				}
			}
		}
	}
}

func TestLongTermDetectorLifecycle(t *testing.T) {
	params := DefaultModelParams(100, 0.01, 0.05)
	params.CalibSamples = 1500
	model, err := BuildModel(params)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := pomdp.SolveQMDP(context.Background(), model, 1e-8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewLongTerm(model, policy, params.Buckets)
	if err != nil {
		t.Fatal(err)
	}

	// Quiet stream: no inspections expected on repeated zero counts.
	for i := 0; i < 8; i++ {
		if a, o := d.Step(0); a != ActionContinue || o != 0 {
			t.Fatalf("quiet slot %d: action %d obs %d", i, a, o)
		}
	}
	if d.Inspections != 0 {
		t.Fatalf("quiet stream triggered %d inspections", d.Inspections)
	}
	if d.MAPBucket() != 0 {
		t.Fatalf("quiet MAP bucket = %d", d.MAPBucket())
	}

	// Escalating counts must eventually trigger an inspection.
	triggered := false
	for i := 0; i < 12 && !triggered; i++ {
		count := 10 + i*8
		if a, _ := d.Step(count); a == ActionInspect {
			triggered = true
		}
	}
	if !triggered {
		t.Fatal("escalating attack never inspected")
	}
	if d.Steps == 0 || d.Inspections == 0 {
		t.Fatalf("counters wrong: %+v", d)
	}
}

func TestNewLongTermValidation(t *testing.T) {
	params := DefaultModelParams(50, 0.01, 0.05)
	params.CalibSamples = 200
	model, err := BuildModel(params)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := pomdp.SolveQMDP(context.Background(), model, 1e-6, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLongTerm(nil, policy, params.Buckets); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewLongTerm(model, nil, params.Buckets); err == nil {
		t.Error("nil policy accepted")
	}
	otherBuckets, _ := NewBucketizer([]int{1})
	if _, err := NewLongTerm(model, policy, otherBuckets); err == nil {
		t.Error("mismatched bucketizer accepted")
	}
}

func TestExactSolverHandlesDetectionModel(t *testing.T) {
	// The exact finite-horizon solver must run on the calibrated detection
	// POMDP (6 states, 2 actions, 6 observations) and order the corner
	// beliefs sensibly: a fully-compromised fleet is worth inspecting.
	params := DefaultModelParams(100, 0.01, 0.3)
	params.CalibSamples = 800
	model, err := BuildModel(params)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := pomdp.SolveFiniteHorizon(context.Background(), model, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Value decreases with the compromised fraction: more hacked meters can
	// only cost more.
	prev := pol.Value(pomdp.PointBelief(model.NumStates, 0))
	for s := 1; s < model.NumStates; s++ {
		v := pol.Value(pomdp.PointBelief(model.NumStates, s))
		if v > prev+1e-9 {
			t.Fatalf("value increased from state %d to %d: %v > %v", s-1, s, v, prev)
		}
		prev = v
	}
}

func TestLongTermBeliefIsCopy(t *testing.T) {
	params := DefaultModelParams(50, 0.01, 0.05)
	params.CalibSamples = 200
	model, err := BuildModel(params)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := pomdp.SolveQMDP(context.Background(), model, 1e-6, 500)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewLongTerm(model, policy, params.Buckets)
	if err != nil {
		t.Fatal(err)
	}
	st := d.State()
	st.Belief[0] = -99
	if d.State().Belief[0] == -99 {
		t.Fatal("State returned the internal belief")
	}
}
