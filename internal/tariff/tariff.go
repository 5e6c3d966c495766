// Package tariff implements the paper's pricing machinery: the quadratic
// monetary-cost model (Section 2.3, Eqns 2–3), the net-metering sell-back
// rate pₕ/W, and the utility's guideline-price formation process.
//
// # Cost model
//
// The community pays pₕ·(Σₙ yₙʰ)² for grid energy at slot h (quadratic
// pricing, after Mohsenian-Rad et al. [9]): the marginal unit price is
// pₕ·Σy, so each purchasing customer n pays pₕ·(Σy)·yₙ. A selling customer
// (yₙ < 0) is paid at the discounted rate pₕ/W, i.e. cost (pₕ/W)·(Σy)·yₙ,
// which is negative — a reward. Note the paper's Eqn 2 prints an extra minus
// on the selling branch, which would make selling *cost* money and void the
// net-metering incentive entirely; we implement the economically meaningful
// sign (reward for selling) and record the discrepancy here and in DESIGN.md.
//
// # Guideline price formation
//
// The utility predicts next-day *net* grid demand and prices each slot as an
// affine function of it:
//
//	pₕ = Base(h) + κ · max(0, D̂ₕ − Θ̂ₕ)/N + noise
//
// where D̂ is the community load forecast and Θ̂ the community renewable
// forecast — net metering lowers midday net demand and therefore carves the
// midday "gap" in the received guideline price that Figure 3 shows the
// NM-blind predictor missing.
package tariff

import (
	"fmt"
	"math"

	"nmdetect/internal/rng"
	"nmdetect/internal/timeseries"
)

// Quadratic is the community cost model.
type Quadratic struct {
	// W is the sell-back divisor (≥ 1): sellers are paid pₕ/W per marginal
	// unit. W = 1 means full retail net metering.
	W float64
}

// NewQuadratic returns a cost model with the given sell-back divisor.
func NewQuadratic(w float64) (Quadratic, error) {
	if w < 1 {
		return Quadratic{}, fmt.Errorf("tariff: sell-back divisor W=%v must be >= 1", w)
	}
	return Quadratic{W: w}, nil
}

// CustomerCost returns Cₙʰ for one customer per Eqn 2 (with the selling
// branch's sign corrected as described in the package comment): buyers pay
// the marginal price pₕ·Σy per unit, sellers are paid (pₕ/W)·Σy per unit.
//
// The paper's community is always a net buyer, so Σy < 0 never arises there.
// In our simulator high-PV moments can push the community total negative,
// which would invert the economics (selling would cost, buying would earn)
// under the raw quadratic form. The marginal price is therefore clamped at
// zero: when the community is a net seller the spot price collapses and
// nobody pays or is paid at that slot.
func (q Quadratic) CustomerCost(price, totalTrading, customerTrading float64) float64 {
	if totalTrading < 0 {
		return 0
	}
	if customerTrading >= 0 {
		return price * totalTrading * customerTrading
	}
	return price / q.W * totalTrading * customerTrading
}

// Formation is the utility's guideline-price process.
type Formation struct {
	// Base is the diurnal baseline price profile over 24 slots ($/kWh·kW
	// marginal units under the quadratic model).
	Base [24]float64
	// Kappa couples the price to forecast per-customer net demand.
	Kappa float64
	// NoiseSigma is the AR(1) innovation scale of the day-to-day noise.
	NoiseSigma float64
	// NoisePhi is the AR(1) persistence coefficient in [0, 1).
	NoisePhi float64
	// Floor is the minimum published price.
	Floor float64
}

// DefaultFormation returns the configuration used by the experiments: a
// morning/evening double-peak baseline (standard US residential TOU shape)
// with mild autocorrelated noise.
func DefaultFormation() Formation {
	f := Formation{
		Kappa:      0.02,
		NoiseSigma: 0.003,
		NoisePhi:   0.6,
		Floor:      0.01,
	}
	for h := 0; h < 24; h++ {
		f.Base[h] = baseShape(h)
	}
	return f
}

// baseShape returns the diurnal baseline: cheap overnight, shoulders in the
// morning, most expensive in the early evening.
func baseShape(h int) float64 {
	switch {
	case h < 6:
		return 0.05
	case h < 9:
		return 0.09
	case h < 16:
		return 0.08
	case h < 21:
		return 0.12
	default:
		return 0.06
	}
}

// Validate checks the formation parameters.
func (f Formation) Validate() error {
	if f.Kappa < 0 {
		return fmt.Errorf("tariff: negative kappa %v", f.Kappa)
	}
	if f.NoiseSigma < 0 {
		return fmt.Errorf("tariff: negative noise sigma %v", f.NoiseSigma)
	}
	if f.NoisePhi < 0 || f.NoisePhi >= 1 {
		return fmt.Errorf("tariff: noise phi %v out of [0,1)", f.NoisePhi)
	}
	if f.Floor < 0 {
		return fmt.Errorf("tariff: negative floor %v", f.Floor)
	}
	for h, b := range f.Base {
		if b <= 0 {
			return fmt.Errorf("tariff: non-positive base price %v at slot %d", b, h)
		}
	}
	return nil
}

// Publish produces the guideline price for a horizon of len(loadForecast)
// slots. loadForecast is the utility's community load forecast D̂; when
// netMetering is true, renewableForecast Θ̂ is subtracted before pricing
// (this is exactly the effect the paper studies — the published price
// embeds the net-metering demand reduction). customers scales the per-capita
// coupling. The noise source may be nil for a deterministic publication.
// A non-positive customer count or misaligned forecasts are errors.
func (f Formation) Publish(loadForecast, renewableForecast timeseries.Series, customers int, netMetering bool, src *rng.Source) (timeseries.Series, error) {
	if customers <= 0 {
		return nil, fmt.Errorf("tariff: Publish with non-positive customer count %d", customers)
	}
	if netMetering && len(renewableForecast) != len(loadForecast) {
		return nil, fmt.Errorf("tariff: renewable forecast length %d != load forecast %d",
			len(renewableForecast), len(loadForecast))
	}
	out := make(timeseries.Series, len(loadForecast))
	noise := 0.0
	for t := range loadForecast {
		net := loadForecast[t]
		if netMetering {
			net -= renewableForecast[t]
		}
		if net < 0 {
			net = 0
		}
		p := f.Base[t%24] + f.Kappa*net/float64(customers)
		if src != nil {
			noise = f.NoisePhi*noise + src.Normal(0, f.NoiseSigma)
			p += noise
		}
		out[t] = math.Max(p, f.Floor)
	}
	return out, nil
}

// History bundles the aligned historical series the forecaster trains on.
type History struct {
	Price     timeseries.Series // published guideline price pₜ
	Renewable timeseries.Series // community renewable generation Θₜ
	Demand    timeseries.Series // community energy demand Lₜ
}

// Len returns the number of slots of history.
func (h History) Len() int { return len(h.Price) }

// Validate checks the three series are aligned and non-empty.
func (h History) Validate() error {
	if len(h.Price) == 0 {
		return fmt.Errorf("tariff: empty history")
	}
	if len(h.Renewable) != len(h.Price) || len(h.Demand) != len(h.Price) {
		return fmt.Errorf("tariff: history misaligned (price %d, renewable %d, demand %d)",
			len(h.Price), len(h.Renewable), len(h.Demand))
	}
	return nil
}

// Tail returns the last n slots of history as a new History.
func (h History) Tail(n int) History {
	if n > h.Len() {
		n = h.Len()
	}
	start := h.Len() - n
	return History{
		Price:     h.Price.Slice(start, h.Len()),
		Renewable: h.Renewable.Slice(start, h.Len()),
		Demand:    h.Demand.Slice(start, h.Len()),
	}
}

// Append extends the history with one aligned observation.
func (h *History) Append(price, renewable, demand float64) {
	h.Price = append(h.Price, price)
	h.Renewable = append(h.Renewable, renewable)
	h.Demand = append(h.Demand, demand)
}
