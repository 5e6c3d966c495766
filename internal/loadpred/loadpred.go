// Package loadpred is the energy-load prediction layer of Section 3: given a
// guideline price, it predicts the community load by solving the scheduling
// game, in either of the two models the paper compares.
//
//   - Net-metering-aware (Algorithm 1): customers schedule appliances AND
//     optimize battery storage against their PV forecast; the predicted
//     series of record is the grid demand Σyₙ, which is what the utility
//     observes and prices.
//   - Net-metering-blind ([9]/[8] model): no PV, no batteries, no selling;
//     the predicted load is the plain consumption ΣLₙ.
//
// Detection calls this layer repeatedly with identical inputs (predicted
// price vs received price, every slot of a monitoring window), so results are
// memoized on a content hash of the price vector.
package loadpred

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/rng"
	"nmdetect/internal/timeseries"
)

// Predictor predicts community load responses to guideline prices.
type Predictor struct {
	customers []*household.Customer
	cfg       game.Config
	pv        [][]float64
	seed      uint64
	cache     map[string]*game.Result
}

// New builds a predictor. pv holds the per-customer renewable forecasts for
// the target day (required when cfg.NetMetering is set; pass nil otherwise).
// The seed makes repeated predictions deterministic.
func New(customers []*household.Customer, cfg game.Config, pv [][]float64, seed uint64) (*Predictor, error) {
	if len(customers) == 0 {
		return nil, errors.New("loadpred: empty community")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NetMetering && len(pv) != len(customers) {
		return nil, fmt.Errorf("loadpred: %d pv forecasts for %d customers", len(pv), len(customers))
	}
	return &Predictor{
		customers: customers,
		cfg:       cfg,
		pv:        pv,
		seed:      seed,
		cache:     make(map[string]*game.Result),
	}, nil
}

// Predict solves the scheduling game under the given guideline price and
// returns the full game result. Results are memoized per price vector. The
// context cancels the underlying solve (see game.Solve); a cancelled solve is
// not cached.
func (p *Predictor) Predict(ctx context.Context, price timeseries.Series) (*game.Result, error) {
	key := hashSeries(price)
	if res, ok := p.cache[key]; ok {
		return res, nil
	}
	res, err := game.Solve(ctx, nil, p.customers, price, p.pv, p.cfg, rng.New(p.seed))
	if err != nil {
		return nil, err
	}
	p.cache[key] = res
	return res, nil
}

// PredictLoad returns the predicted community energy load Lₕ = Σₙ lₙʰ (the
// paper's Section 2.1 definition — consumption, not net grid purchase). The
// two predictor modes produce different consumption profiles because net
// metering changes each customer's marginal price of consuming at solar
// hours, which is exactly the effect the paper's prediction comparison
// isolates.
func (p *Predictor) PredictLoad(ctx context.Context, price timeseries.Series) (timeseries.Series, error) {
	res, err := p.Predict(ctx, price)
	if err != nil {
		return nil, err
	}
	return LoadOfRecord(res, p.cfg.NetMetering), nil
}

// PredictPAR returns the peak-to-average ratio of the predicted load — the
// quantity the single-event detector thresholds.
func (p *Predictor) PredictPAR(ctx context.Context, price timeseries.Series) (float64, error) {
	load, err := p.PredictLoad(ctx, price)
	if err != nil {
		return 0, err
	}
	return load.PAR(), nil
}

// LoadOfRecord extracts the community energy load Lₕ = Σₙ lₙʰ from a game
// result. Both community models report consumption (the paper's load
// definition); they differ in the scheduling that produced it.
func LoadOfRecord(res *game.Result, netMetering bool) timeseries.Series {
	_ = netMetering // both models record consumption; kept for call-site clarity
	return res.Load.Clone()
}

// hashSeries produces a content key for memoization (FNV-1a over the raw
// float bits).
func hashSeries(s timeseries.Series) string {
	var h uint64 = 0xcbf29ce484222325
	for _, v := range s {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= (bits >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	return fmt.Sprintf("%016x-%d", h, len(s))
}
