// Package attack models the pricing cyberattacks of Section 4 and [8]: a
// hacker compromises smart meters and manipulates the guideline price they
// receive, misleading those households' scheduling and distorting the
// community load.
//
// Three layers are provided: price manipulations (what a hacked meter sees),
// reading falsification (what a hacked meter reports on the monitoring
// channel), and campaigns (which meters are hacked when — the state process
// the POMDP detector tracks). A fourth, strategic layer — the Adaptive
// attacker — tunes a payload family against the detector's threshold before
// the campaign starts.
package attack

import (
	"fmt"
	"math"

	"nmdetect/internal/rng"
	"nmdetect/internal/timeseries"
)

// Attack transforms the guideline price a hacked meter receives.
type Attack interface {
	// Apply returns the manipulated copy of price. The input is not
	// modified.
	Apply(price timeseries.Series) timeseries.Series
	// Name identifies the manipulation for reports.
	Name() string
}

// ReadingAttack is implemented by attacks that additionally falsify the
// monitoring channel — the per-slot meter readings the detector observes —
// rather than (or on top of) the price channel. The physical flows are
// untouched; only the reported value lies.
type ReadingAttack interface {
	Attack
	// FalsifyReading returns the value a hacked meter reports for slot h
	// given the true measured reading (kW, before measurement noise).
	FalsifyReading(h int, reading float64) float64
}

// windowApply calls fn(h, i) for each slot h of the inclusive window
// [from, to], where i counts 0,1,... through the window. The window wraps
// within the day: from > to covers from..len-1 then 0..to (e.g. 22..2 is
// the five night slots). A window spanning the whole day or more touches
// every slot exactly once.
func windowApply(n, from, to int, fn func(h, i int)) {
	if n <= 0 {
		return
	}
	span := to - from + 1
	if span <= 0 {
		span += n
	}
	if span <= 0 || span >= n {
		span = n
	}
	start := ((from % n) + n) % n
	for i := 0; i < span; i++ {
		fn((start+i)%n, i)
	}
}

// inWindow reports whether slot h lies in the inclusive wrapping window
// [from, to] of an n-slot day.
func inWindow(n, from, to, h int) bool {
	if n <= 0 || h < 0 || h >= n {
		return false
	}
	span := to - from + 1
	if span <= 0 {
		span += n
	}
	if span <= 0 || span >= n {
		return true
	}
	start := ((from % n) + n) % n
	off := ((h-start)%n + n) % n
	return off < span
}

// ZeroWindow zeroes the price in the slot window [From, To] (inclusive,
// wrapping within the day: From > To covers the overnight slots) — the
// Figure 5 attack: a free window attracts every schedulable load, creating
// a malicious peak that maximizes PAR.
type ZeroWindow struct {
	From, To int
}

// Apply implements Attack.
func (a ZeroWindow) Apply(price timeseries.Series) timeseries.Series {
	out := price.Clone()
	windowApply(len(out), a.From, a.To, func(h, _ int) { out[h] = 0 })
	return out
}

// Name implements Attack.
func (a ZeroWindow) Name() string { return fmt.Sprintf("zero-window[%d,%d]", a.From, a.To) }

// ScaleWindow multiplies the price by Factor inside the wrapping window
// [From, To]. Factor < 1 attracts load (PAR attack); Factor > 1 repels it
// (bill-increase attack when applied to cheap slots, forcing consumption
// into expensive ones).
type ScaleWindow struct {
	From, To int
	Factor   float64
}

// Apply implements Attack.
func (a ScaleWindow) Apply(price timeseries.Series) timeseries.Series {
	out := price.Clone()
	windowApply(len(out), a.From, a.To, func(h, _ int) { out[h] *= a.Factor })
	return out
}

// Name implements Attack.
func (a ScaleWindow) Name() string {
	return fmt.Sprintf("scale-window[%d,%d]x%g", a.From, a.To, a.Factor)
}

// Ramp scales the price across the wrapping window [From, To] by a factor
// that ramps linearly from 1 at the window start to Factor at the window
// end — a creeping manipulation that avoids the step edge a windowed scale
// leaves in the price curve.
type Ramp struct {
	From, To int
	Factor   float64
}

// Apply implements Attack.
func (a Ramp) Apply(price timeseries.Series) timeseries.Series {
	out := price.Clone()
	n := len(out)
	if n == 0 {
		return out
	}
	span := a.To - a.From + 1
	if span <= 0 {
		span += n
	}
	if span <= 0 || span > n {
		span = n
	}
	windowApply(n, a.From, a.To, func(h, i int) {
		f := a.Factor
		if span > 1 {
			f = 1 + (a.Factor-1)*float64(i)/float64(span-1)
		}
		out[h] *= f
	})
	return out
}

// Name implements Attack.
func (a Ramp) Name() string {
	return fmt.Sprintf("ramp[%d,%d]->%g", a.From, a.To, a.Factor)
}

// Delay rotates the price signal by Slots hours: at slot h the meter sees
// the price that was published for slot h−Slots — a stale-price attack
// that desynchronizes the household's schedule from the real tariff.
// Negative Slots advances the signal instead.
type Delay struct {
	Slots int
}

// Apply implements Attack.
func (a Delay) Apply(price timeseries.Series) timeseries.Series {
	out := price.Clone()
	n := len(out)
	if n == 0 {
		return out
	}
	for h := range out {
		src := ((h-a.Slots)%n + n) % n
		out[h] = price[src]
	}
	return out
}

// Name implements Attack.
func (a Delay) Name() string { return fmt.Sprintf("delay[%+dh]", a.Slots) }

// LoadShift fabricates a DSM load-shift signal (Hatalis et al.): the price
// inside the wrapping window [From, To] is scaled by Factor and the removed
// (or added) price mass is redistributed evenly over the slots outside the
// window, so the day's total price level is preserved. Schedulers chase the
// artificial differential and move load into the window while the average
// tariff — the quantity a coarse plausibility check would watch — stays
// put. A whole-day window degrades to a plain scale.
type LoadShift struct {
	From, To int
	Factor   float64
}

// Apply implements Attack.
func (a LoadShift) Apply(price timeseries.Series) timeseries.Series {
	out := price.Clone()
	n := len(out)
	if n == 0 {
		return out
	}
	removed := 0.0
	inside := 0
	windowApply(n, a.From, a.To, func(h, _ int) {
		removed += out[h] * (1 - a.Factor)
		out[h] *= a.Factor
		inside++
	})
	outside := n - inside
	if outside > 0 {
		comp := removed / float64(outside)
		marked := make([]bool, n)
		windowApply(n, a.From, a.To, func(h, _ int) { marked[h] = true })
		for h := range out {
			if !marked[h] {
				out[h] += comp
			}
		}
	}
	return out
}

// Name implements Attack.
func (a LoadShift) Name() string {
	return fmt.Sprintf("load-shift[%d,%d]x%g", a.From, a.To, a.Factor)
}

// Invert reverses the price ordering across the day: p'ₕ = max(p) + min(p) −
// pₕ. Schedulers then pile demand onto what are truly the most expensive
// slots — the bill-maximizing attack of [8].
type Invert struct{}

// Apply implements Attack.
func (Invert) Apply(price timeseries.Series) timeseries.Series {
	out := price.Clone()
	if len(out) == 0 {
		return out
	}
	mx, _ := price.Max()
	mn, _ := price.Min()
	for h := range out {
		out[h] = mx + mn - price[h]
	}
	return out
}

// Name implements Attack.
func (Invert) Name() string { return "invert" }

// FalseReading is the net-metering reading-falsification attack (Badr et
// al.): a hacked meter reports MagnitudeKW of phantom PV export inside the
// wrapping window [From, To], lowering its reported net reading while its
// price channel — and its physical behaviour — stay untouched. The detector
// sees a meter that appears to generate more than it does.
type FalseReading struct {
	From, To int
	// MagnitudeKW is the phantom export subtracted from each in-window
	// reading.
	MagnitudeKW float64
}

// Apply implements Attack: the price channel is untouched.
func (a FalseReading) Apply(price timeseries.Series) timeseries.Series { return price.Clone() }

// FalsifyReading implements ReadingAttack.
func (a FalseReading) FalsifyReading(h int, reading float64) float64 {
	if inWindow(24, a.From, a.To, ((h%24)+24)%24) {
		return reading - a.MagnitudeKW
	}
	return reading
}

// Name implements Attack.
func (a FalseReading) Name() string {
	return fmt.Sprintf("false-reading[%d,%d]-%gkW", a.From, a.To, a.MagnitudeKW)
}

// None is the identity manipulation (useful as a control).
type None struct{}

// Apply implements Attack.
func (None) Apply(price timeseries.Series) timeseries.Series { return price.Clone() }

// Name implements Attack.
func (None) Name() string { return "none" }

// ProbeFn evaluates a candidate payload against the detector and returns
// the maximum absolute per-slot deviation (kW) the flagger would observe
// from a meter running it. Probes must be deterministic and free of side
// effects on the system under test.
type ProbeFn func(Attack) (float64, error)

// Family is a one-parameter family of payloads indexed by intensity
// x ∈ [0, 1]: At(0) is (near-)harmless, At(1) is full strength, and the
// detector-visible deviation must grow monotonically with x — the contract
// the Adaptive attacker's bisection relies on.
type Family interface {
	At(x float64) Attack
	Name() string
}

// ScaleFamily is the canonical payload family: At(x) scales the wrapping
// window [From, To] by 1−x, so x=0 leaves the price untouched and x=1
// zeroes the window (the full Figure 5 attack).
type ScaleFamily struct {
	From, To int
}

// At implements Family.
func (f ScaleFamily) At(x float64) Attack {
	return ScaleWindow{From: f.From, To: f.To, Factor: 1 - x}
}

// Name implements Family.
func (f ScaleFamily) Name() string { return fmt.Sprintf("scale-family[%d,%d]", f.From, f.To) }

// ReadingFamily is the monitoring-channel payload family: At(x) reports
// x·MaxKW of phantom export inside the wrapping window [From, To] and leaves
// the price channel untouched. Unlike the price families — whose
// detector-visible deviation jumps discontinuously because any effective
// price change flips a whole discrete appliance — the reading channel is
// continuous in x, so bisection lands the magnitude just under the evasion
// target: theft sized to the detector's threshold.
type ReadingFamily struct {
	From, To int
	// MaxKW is the full-strength phantom export (the magnitude At(1)
	// reports).
	MaxKW float64
}

// At implements Family.
func (f ReadingFamily) At(x float64) Attack {
	return FalseReading{From: f.From, To: f.To, MagnitudeKW: x * f.MaxKW}
}

// Name implements Family.
func (f ReadingFamily) Name() string {
	return fmt.Sprintf("reading-family[%d,%d]<=%gkW", f.From, f.To, f.MaxKW)
}

// Tunable is implemented by attacks that adapt against the detector before
// the campaign starts — Esmalifalak et al.'s strategic attacker closing the
// zero-sum loop.
type Tunable interface {
	Attack
	// Tune probes the detector, fixes the payload, and returns the chosen
	// intensity in [0, 1]. Tune must be deterministic: it draws no
	// randomness of its own, so the parent rng stream is never advanced.
	Tune(probe ProbeFn) (float64, error)
}

// Adaptive is the strategic attacker: it bisects a payload Family for the
// largest intensity whose detector-visible deviation stays below
// Margin·Tau, then runs that payload for the whole campaign. Until Tune is
// called it behaves as the family at full strength.
type Adaptive struct {
	// Family is the payload family to tune over.
	Family Family
	// Tau is the detector flagger threshold (kW) to evade.
	Tau float64
	// Margin is the fraction of Tau to stay under; 0 means the default
	// 0.9. Must lie in (0, 1).
	Margin float64
	// Steps is the bisection depth; 0 means the default 8.
	Steps int

	payload   Attack
	intensity float64
	tuned     bool
}

// active is the payload currently in force: the tuned payload if Tune has
// run, otherwise the family at full strength, otherwise nil.
func (a *Adaptive) active() Attack {
	if a.payload != nil {
		return a.payload
	}
	if a.Family != nil {
		return a.Family.At(1)
	}
	return nil
}

// Apply implements Attack: the tuned payload if Tune has run, otherwise the
// family at full strength.
func (a *Adaptive) Apply(price timeseries.Series) timeseries.Series {
	if atk := a.active(); atk != nil {
		return atk.Apply(price)
	}
	return price.Clone()
}

// FalsifyReading implements ReadingAttack by delegation: families over
// reading-falsifying payloads (ReadingFamily) lie on the monitoring channel,
// price families report truthfully.
func (a *Adaptive) FalsifyReading(h int, reading float64) float64 {
	if ra, ok := a.active().(ReadingAttack); ok {
		return ra.FalsifyReading(h, reading)
	}
	return reading
}

// Name implements Attack.
func (a *Adaptive) Name() string {
	fam := "none"
	if a.Family != nil {
		fam = a.Family.Name()
	}
	if a.tuned {
		return fmt.Sprintf("adaptive[%s@%.4f]", fam, a.intensity)
	}
	return fmt.Sprintf("adaptive[%s]", fam)
}

// Intensity returns the tuned intensity, and whether Tune has run.
func (a *Adaptive) Intensity() (float64, bool) { return a.intensity, a.tuned }

// Tune implements Tunable: monotone bisection for the largest x with
// probe(Family.At(x)) ≤ Margin·Tau. The probe is called 2+Steps times; no
// randomness is drawn.
func (a *Adaptive) Tune(probe ProbeFn) (float64, error) {
	if a.Family == nil {
		return 0, fmt.Errorf("attack: adaptive attacker has no payload family")
	}
	if probe == nil {
		return 0, fmt.Errorf("attack: adaptive attacker needs a probe")
	}
	margin := a.Margin
	if margin == 0 {
		margin = 0.9
	}
	if margin <= 0 || margin >= 1 || math.IsNaN(margin) {
		return 0, fmt.Errorf("attack: adaptive margin %v out of (0,1)", a.Margin)
	}
	if a.Tau < 0 || math.IsNaN(a.Tau) || math.IsInf(a.Tau, 0) {
		return 0, fmt.Errorf("attack: adaptive tau %v must be finite and non-negative", a.Tau)
	}
	steps := a.Steps
	if steps <= 0 {
		steps = 8
	}
	target := margin * a.Tau

	commit := func(x float64) (float64, error) {
		a.payload = a.Family.At(x)
		a.intensity = x
		a.tuned = true
		return x, nil
	}

	// Full strength already evades: no need to back off.
	dev, err := probe(a.Family.At(1))
	if err != nil {
		return 0, fmt.Errorf("attack: probe at full strength: %w", err)
	}
	if dev <= target {
		return commit(1)
	}
	// Even a harmless payload trips the detector: give up at intensity 0
	// rather than guarantee a flag.
	dev, err = probe(a.Family.At(0))
	if err != nil {
		return 0, fmt.Errorf("attack: probe at zero strength: %w", err)
	}
	if dev > target {
		return commit(0)
	}
	lo, hi := 0.0, 1.0 // probe(lo) ≤ target < probe(hi)
	for i := 0; i < steps; i++ {
		mid := (lo + hi) / 2
		dev, err := probe(a.Family.At(mid))
		if err != nil {
			return 0, fmt.Errorf("attack: probe at %v: %w", mid, err)
		}
		if dev <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return commit(lo)
}

// Campaign is the meter-compromise process: the hidden state the long-term
// detector estimates. Hacked meters receive the manipulated price; intact
// meters receive the published one. Under the "continue" action the hacked
// set grows stochastically; an inspection repairs every hacked meter.
type Campaign struct {
	// N is the number of meters in the community.
	N int
	// HackProb is the per-slot probability that the hacker compromises one
	// additional batch of meters.
	HackProb float64
	// BatchLo/BatchHi bound the number of meters compromised per successful
	// step.
	BatchLo, BatchHi int
	// Attack is the price manipulation hacked meters receive.
	Attack Attack
	// StrikeSlots, when non-empty, replaces the Bernoulli growth process
	// with coordinated timing: a batch is compromised exactly at each
	// listed slot of the day (the coordinated grid attack of the scenario
	// taxonomy). Nil preserves the classic stochastic process. Only StepAt
	// honours it; Step always runs the stochastic process.
	StrikeSlots []int

	hacked []bool
	count  int
}

// NewCampaign validates and initializes a campaign with no meters hacked.
func NewCampaign(n int, hackProb float64, batchLo, batchHi int, atk Attack) (*Campaign, error) {
	if n <= 0 {
		return nil, fmt.Errorf("attack: community size %d must be positive", n)
	}
	if hackProb < 0 || hackProb > 1 {
		return nil, fmt.Errorf("attack: hack probability %v out of [0,1]", hackProb)
	}
	if batchLo < 1 || batchHi < batchLo {
		return nil, fmt.Errorf("attack: batch range [%d,%d] invalid", batchLo, batchHi)
	}
	if atk == nil {
		return nil, fmt.Errorf("attack: nil attack")
	}
	return &Campaign{
		N: n, HackProb: hackProb, BatchLo: batchLo, BatchHi: batchHi, Attack: atk,
		hacked: make([]bool, n),
	}, nil
}

// Step advances the compromise process one slot: with probability HackProb a
// batch of previously-intact meters becomes hacked. It returns the number of
// newly hacked meters.
func (c *Campaign) Step(src *rng.Source) int {
	if !src.Bernoulli(c.HackProb) {
		return 0
	}
	return c.hackBatch(src)
}

// StepAt advances the compromise process at day slot `slot`. With
// StrikeSlots unset it is exactly Step — draw-for-draw identical. With
// StrikeSlots set, the hacker strikes deterministically at the listed slots
// (batch size still drawn from [BatchLo, BatchHi]) and stays quiet
// otherwise.
func (c *Campaign) StepAt(slot int, src *rng.Source) int {
	if len(c.StrikeSlots) == 0 {
		return c.Step(src)
	}
	for _, s := range c.StrikeSlots {
		if s == slot {
			return c.hackBatch(src)
		}
	}
	return 0
}

// hackBatch compromises one batch of previously-intact meters, scanning the
// ring from a random offset so compromised meters are spread out but every
// intact meter is reachable.
func (c *Campaign) hackBatch(src *rng.Source) int {
	batch := c.BatchLo
	if c.BatchHi > c.BatchLo {
		batch += src.Intn(c.BatchHi - c.BatchLo + 1)
	}
	newly := 0
	off := src.Intn(c.N)
	for i := 0; i < c.N && newly < batch; i++ {
		idx := (off + i) % c.N
		if !c.hacked[idx] {
			c.hacked[idx] = true
			c.count++
			newly++
		}
	}
	return newly
}

// HackNow immediately compromises up to count additional meters regardless
// of HackProb (used to set up calibration scenarios with a known compromised
// fraction). It returns the number of newly hacked meters.
func (c *Campaign) HackNow(count int, src *rng.Source) int {
	newly := 0
	off := src.Intn(c.N)
	for i := 0; i < c.N && newly < count; i++ {
		idx := (off + i) % c.N
		if !c.hacked[idx] {
			c.hacked[idx] = true
			c.count++
			newly++
		}
	}
	return newly
}

// Repair fixes every hacked meter (the POMDP's inspect action) and returns
// how many were repaired.
func (c *Campaign) Repair() int {
	repaired := c.count
	for i := range c.hacked {
		c.hacked[i] = false
	}
	c.count = 0
	return repaired
}

// CampaignState is a serializable snapshot of a campaign's mutable state
// (the hidden compromise set), captured by State and reinstated by Restore
// for checkpoint/resume. StrikeSlots is configuration, not state, so the
// gob layout — and every existing checkpoint — is unchanged.
type CampaignState struct {
	Hacked []bool
	Count  int
}

// State captures the campaign's mutable state.
func (c *Campaign) State() CampaignState {
	h := make([]bool, len(c.hacked))
	copy(h, c.hacked)
	return CampaignState{Hacked: h, Count: c.count}
}

// Restore reinstates a snapshot previously captured with State.
func (c *Campaign) Restore(st CampaignState) error {
	if len(st.Hacked) != c.N {
		return fmt.Errorf("attack: snapshot covers %d meters, campaign has %d", len(st.Hacked), c.N)
	}
	count := 0
	for _, h := range st.Hacked {
		if h {
			count++
		}
	}
	if count != st.Count {
		return fmt.Errorf("attack: snapshot count %d does not match %d hacked meters", st.Count, count)
	}
	copy(c.hacked, st.Hacked)
	c.count = st.Count
	return nil
}

// Hacked reports whether meter i is currently compromised.
func (c *Campaign) Hacked(i int) bool { return c.hacked[i] }

// Count returns the number of currently hacked meters.
func (c *Campaign) Count() int { return c.count }
