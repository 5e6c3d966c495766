package detect

import (
	"errors"
	"fmt"

	"nmdetect/internal/pomdp"
	"nmdetect/internal/rng"
)

// POMDP actions of the long-term detector.
const (
	// ActionContinue (a₀) ignores the alarm and keeps monitoring.
	ActionContinue = 0
	// ActionInspect (a₁) checks and repairs every hacked smart meter.
	ActionInspect = 1
)

// ModelParams describes the detection POMDP of Section 4.2.
type ModelParams struct {
	// N is the number of smart meters in the community.
	N int
	// Buckets quantizes hacked-meter counts into the state/obs alphabet.
	Buckets Bucketizer
	// HackProb, BatchLo, BatchHi mirror the attack campaign dynamics used
	// for training (the transition function is calibrated against them).
	HackProb         float64
	BatchLo, BatchHi int
	// FalsePos is the per-meter probability that an intact meter is flagged
	// by the observation channel; FalseNeg the probability a hacked meter is
	// missed. Calibrated from simulation (see community.CalibrateChannel).
	FalsePos, FalseNeg float64
	// DamagePerMeter is the per-slot economic loss of one hacked meter.
	DamagePerMeter float64
	// InspectCost is the labor cost of one inspection sweep.
	InspectCost float64
	// Discount is the POMDP discount factor.
	Discount float64
	// CalibSamples sets the Monte-Carlo sample count per matrix row.
	CalibSamples int
	// Seed drives the calibration sampling.
	Seed uint64
}

// Validate checks parameter ranges.
func (p ModelParams) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("detect: N %d must be positive", p.N)
	}
	if len(p.Buckets.Bounds) == 0 {
		return errors.New("detect: model params need a bucketizer")
	}
	if p.HackProb < 0 || p.HackProb > 1 {
		return fmt.Errorf("detect: hack probability %v out of [0,1]", p.HackProb)
	}
	if p.BatchLo < 1 || p.BatchHi < p.BatchLo {
		return fmt.Errorf("detect: batch range [%d,%d] invalid", p.BatchLo, p.BatchHi)
	}
	if p.FalsePos < 0 || p.FalsePos > 1 || p.FalseNeg < 0 || p.FalseNeg > 1 {
		return fmt.Errorf("detect: error rates fp=%v fn=%v out of [0,1]", p.FalsePos, p.FalseNeg)
	}
	if p.DamagePerMeter < 0 || p.InspectCost < 0 {
		return fmt.Errorf("detect: negative costs")
	}
	if p.Discount < 0 || p.Discount >= 1 {
		return fmt.Errorf("detect: discount %v out of [0,1)", p.Discount)
	}
	if p.CalibSamples < 1 {
		return fmt.Errorf("detect: calibration samples %d must be positive", p.CalibSamples)
	}
	return nil
}

// DefaultModelParams returns the experiment configuration for a community of
// n meters with the given observation error rates.
func DefaultModelParams(n int, fp, fn float64) ModelParams {
	buckets, _ := NewBucketizer(defaultBounds(n))
	return ModelParams{
		N:              n,
		Buckets:        buckets,
		HackProb:       0.25,
		BatchLo:        max(1, n/100),
		BatchHi:        max(2, n/25),
		FalsePos:       fp,
		FalseNeg:       fn,
		DamagePerMeter: 1.0,
		// Inspection sweeps are expensive (a truck roll per neighborhood):
		// the policy should fire only when a substantial fraction of the
		// fleet is believed compromised, making inspection *timing* the
		// thing detection quality buys — the paper's Table 1 trade-off.
		InspectCost:  1.2 * float64(n),
		Discount:     0.9,
		CalibSamples: 4000,
		Seed:         1,
	}
}

// defaultBounds scales bucket boundaries with the community size.
func defaultBounds(n int) []int {
	b := []int{n / 50, n / 12, n / 5, n / 2}
	out := make([]int, 0, len(b))
	prev := 0
	for _, v := range b {
		if v <= prev {
			v = prev + 1
		}
		out = append(out, v)
		prev = v
	}
	return out
}

// BuildModel calibrates the detection POMDP ⟨S, O, A, T, R, Ω⟩ by Monte-Carlo
// simulation of the campaign process (for T) and the flagging channel
// (for Ω/Z).
func BuildModel(p ModelParams) (*pomdp.Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nb := p.Buckets.NumBuckets()
	m := pomdp.NewModel(nb, 2, nb, p.Discount)
	src := rng.New(p.Seed)

	// stepCampaign simulates one slot of meter compromise from count hacked.
	stepCampaign := func(count int, s *rng.Source) int {
		if !s.Bernoulli(p.HackProb) {
			return count
		}
		batch := p.BatchLo
		if p.BatchHi > p.BatchLo {
			batch += s.Intn(p.BatchHi - p.BatchLo + 1)
		}
		count += batch
		if count > p.N {
			count = p.N
		}
		return count
	}

	// observe simulates the flag channel for a true hacked count, including
	// the debiasing the online detector applies (EstimateHacked), so the
	// calibrated Ω matches what the monitor actually feeds the belief.
	observe := func(count int, s *rng.Source) (int, error) {
		flagged := 0
		for i := 0; i < count; i++ {
			if !s.Bernoulli(p.FalseNeg) {
				flagged++
			}
		}
		// Binomial(N−count, fp) by direct simulation; N is at most a few
		// hundred in the experiments, so this stays cheap.
		for i := 0; i < p.N-count; i++ {
			if s.Bernoulli(p.FalsePos) {
				flagged++
			}
		}
		est, err := EstimateHacked(flagged, p.N, p.FalsePos, p.FalseNeg)
		if err != nil {
			return 0, fmt.Errorf("detect: calibration observed %d flagged of %d meters: %w", flagged, p.N, err)
		}
		return est, nil
	}

	tsrc := src.Derive("transitions")
	zsrc := src.Derive("observations")
	for s := 0; s < nb; s++ {
		lo, hi := p.Buckets.Range(s, p.N)
		rep := p.Buckets.Representative(s, p.N)
		// drawCount samples the hidden count uniformly within the bucket —
		// using only the midpoint would make wide buckets absorbing (a
		// mid-bucket count never crosses the boundary in one batch), while
		// real campaigns drift through them.
		drawCount := func(src *rng.Source) int {
			if hi == lo {
				return lo
			}
			return lo + src.Intn(hi-lo+1)
		}
		// Transitions under continue: campaign grows from a count within the
		// bucket.
		for k := 0; k < p.CalibSamples; k++ {
			next := stepCampaign(drawCount(tsrc), tsrc)
			m.T[ActionContinue][s][p.Buckets.Bucket(next)]++
		}
		// Transitions under inspect: repair resets to zero, then the hacker
		// may immediately strike again.
		for k := 0; k < p.CalibSamples; k++ {
			next := stepCampaign(0, tsrc)
			m.T[ActionInspect][s][p.Buckets.Bucket(next)]++
		}
		// Observation channel is action-independent.
		for k := 0; k < p.CalibSamples; k++ {
			est, err := observe(drawCount(zsrc), zsrc)
			if err != nil {
				return nil, err
			}
			m.Z[ActionContinue][s][p.Buckets.Bucket(est)]++
		}
		copy(m.Z[ActionInspect][s], m.Z[ActionContinue][s])

		normalize(m.T[ActionContinue][s])
		normalize(m.T[ActionInspect][s])
		normalize(m.Z[ActionContinue][s])
		normalize(m.Z[ActionInspect][s])

		// Rewards: hacked meters inflict damage every slot; inspection adds
		// labor cost.
		m.R[ActionContinue][s] = -p.DamagePerMeter * float64(rep)
		m.R[ActionInspect][s] = -p.DamagePerMeter*float64(rep) - p.InspectCost
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("detect: calibrated model invalid: %w", err)
	}
	return m, nil
}

func normalize(row []float64) {
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if sum == 0 {
		row[0] = 1
		return
	}
	for i := range row {
		row[i] /= sum
	}
}

// LongTerm is the running long-term detector: it consumes one flagged-meter
// count per slot, maintains the belief over hacked-count buckets, and emits
// the POMDP policy's action.
type LongTerm struct {
	model   *pomdp.Model
	policy  pomdp.Policy
	buckets Bucketizer
	belief  pomdp.Belief
	lastAct int

	// DryRun marks the detector as observation-only: inspect actions are
	// still issued and counted, but the belief advances as if "continue" had
	// been taken, because nothing actually repairs the fleet (Figure 6's
	// pure-accuracy measurement).
	DryRun bool
	// Inspections counts issued inspect actions (the labor-cost metric).
	Inspections int
	// Steps counts processed observations.
	Steps int
}

// NewLongTerm assembles a detector from a calibrated model and a solved
// policy. The belief starts at "certainly no meters hacked".
func NewLongTerm(model *pomdp.Model, policy pomdp.Policy, buckets Bucketizer) (*LongTerm, error) {
	if model == nil || policy == nil {
		return nil, errors.New("detect: nil model or policy")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if model.NumStates != buckets.NumBuckets() || model.NumObs != buckets.NumBuckets() {
		return nil, fmt.Errorf("detect: model dimensions %d/%d do not match bucketizer %d",
			model.NumStates, model.NumObs, buckets.NumBuckets())
	}
	return &LongTerm{
		model:   model,
		policy:  policy,
		buckets: buckets,
		belief:  pomdp.PointBelief(model.NumStates, 0),
		lastAct: ActionContinue,
	}, nil
}

// Step consumes one slot's flagged-meter count: the belief is first advanced
// with the previously issued action and the new observation, then the policy
// picks the action for this slot. It returns the action and the observation
// bucket.
func (d *LongTerm) Step(flaggedCount int) (action, obsBucket int) {
	o := d.buckets.Bucket(flaggedCount)
	d.belief, _ = d.model.Update(d.belief, d.lastAct, o)
	a := d.policy.Action(d.belief)
	if a == ActionInspect {
		d.Inspections++
	}
	d.lastAct = a
	if d.DryRun {
		d.lastAct = ActionContinue
	}
	d.Steps++
	return a, o
}

// MAPBucket returns the detector's current point estimate of the hacked-count
// bucket.
func (d *LongTerm) MAPBucket() int { return d.belief.MAP() }

// LongTermState is a serializable snapshot of the detector's mutable state
// (belief, pending action, and counters), captured by State and reinstated by
// Restore for checkpoint/resume. The model and policy are rebuilt
// deterministically from configuration, so only runtime state is stored.
type LongTermState struct {
	Belief      []float64
	LastAct     int
	Inspections int
	Steps       int
}

// State captures the detector's mutable state.
func (d *LongTerm) State() LongTermState {
	b := make([]float64, len(d.belief))
	copy(b, d.belief)
	return LongTermState{
		Belief:      b,
		LastAct:     d.lastAct,
		Inspections: d.Inspections,
		Steps:       d.Steps,
	}
}

// Restore reinstates a snapshot previously captured with State.
func (d *LongTerm) Restore(st LongTermState) error {
	if len(st.Belief) != d.model.NumStates {
		return fmt.Errorf("detect: snapshot belief has %d states, model has %d", len(st.Belief), d.model.NumStates)
	}
	if st.LastAct != ActionContinue && st.LastAct != ActionInspect {
		return fmt.Errorf("detect: snapshot action %d invalid", st.LastAct)
	}
	if st.Inspections < 0 || st.Steps < 0 {
		return fmt.Errorf("detect: snapshot counters negative")
	}
	copy(d.belief, st.Belief)
	d.lastAct = st.LastAct
	d.Inspections = st.Inspections
	d.Steps = st.Steps
	return nil
}
