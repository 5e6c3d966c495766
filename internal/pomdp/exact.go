package pomdp

import (
	"context"
	"fmt"
	"math"
)

// FiniteHorizonPolicy is the exact t-stage value function of a POMDP,
// represented as one α-vector set per stage-to-go. It serves as ground truth
// for validating the point-based solver on small models and as a
// short-horizon planner in its own right.
type FiniteHorizonPolicy struct {
	// stages[t] is the vector set for t stages to go; stages[0] is the
	// terminal (zero) stage.
	stages [][]alphaVec
}

// SolveFiniteHorizon computes the exact value function for the given number
// of decision stages by full enumeration with pointwise-dominance pruning.
// The cross-sum over observations grows the vector set as |V|^|O| per
// action, so this is only tractable for small models and short horizons —
// exactly its intended use. The context is polled once per stage; cancelling
// it returns ctx.Err(). A nil ctx never cancels.
func SolveFiniteHorizon(ctx context.Context, m *Model, horizon int) (*FiniteHorizonPolicy, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if horizon < 1 {
		return nil, fmt.Errorf("pomdp: horizon %d must be positive", horizon)
	}
	const maxVectors = 100000

	stages := make([][]alphaVec, horizon+1)
	stages[0] = []alphaVec{{v: make([]float64, m.NumStates), action: 0}}

	for t := 1; t <= horizon; t++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		prev := stages[t-1]
		var next []alphaVec
		for a := 0; a < m.NumActions; a++ {
			// gao[o][k](s) = γ Σ_s' T[a][s][s']·Z[a][s'][o]·prev[k](s').
			gao := make([][][]float64, m.NumObs)
			for o := 0; o < m.NumObs; o++ {
				gao[o] = make([][]float64, len(prev))
				for k, al := range prev {
					vec := make([]float64, m.NumStates)
					for s := 0; s < m.NumStates; s++ {
						sum := 0.0
						for sp := 0; sp < m.NumStates; sp++ {
							if p := m.T[a][s][sp]; p > 0 {
								sum += p * m.Z[a][sp][o] * al.v[sp]
							}
						}
						vec[s] = m.Discount * sum
					}
					gao[o][k] = vec
				}
			}
			// Cross-sum over observations, seeded with the reward vector.
			acc := [][]float64{rewardVec(m, a)}
			for o := 0; o < m.NumObs; o++ {
				var grown [][]float64
				for _, base := range acc {
					for _, g := range gao[o] {
						vec := make([]float64, m.NumStates)
						for s := range vec {
							vec[s] = base[s] + g[s]
						}
						grown = append(grown, vec)
					}
					if len(grown) > maxVectors {
						return nil, fmt.Errorf("pomdp: exact solve exceeded %d vectors at stage %d", maxVectors, t)
					}
				}
				acc = dedupVectors(grown)
			}
			for _, vec := range acc {
				next = append(next, alphaVec{v: vec, action: a})
			}
		}
		stages[t] = pruneDominated(next)
	}
	return &FiniteHorizonPolicy{stages: stages}, nil
}

func rewardVec(m *Model, a int) []float64 {
	out := make([]float64, m.NumStates)
	copy(out, m.R[a])
	return out
}

// dedupVectors removes exact duplicates (cheap pre-pruning between
// observation cross-sums).
func dedupVectors(vecs [][]float64) [][]float64 {
	kept := vecs[:0]
	for i, v := range vecs {
		dup := false
		for j := 0; j < i && !dup; j++ {
			same := true
			for s := range v {
				if math.Abs(v[s]-vecs[j][s]) > 1e-12 {
					same = false
					break
				}
			}
			dup = same
		}
		if !dup {
			kept = append(kept, v)
		}
	}
	return kept
}

// Horizon returns the number of stages the policy was solved for.
func (p *FiniteHorizonPolicy) Horizon() int { return len(p.stages) - 1 }

// ValueAt returns the exact value of belief b with t stages to go.
func (p *FiniteHorizonPolicy) ValueAt(b Belief, t int) float64 {
	if t < 0 {
		t = 0
	}
	if t > p.Horizon() {
		t = p.Horizon()
	}
	best := math.Inf(-1)
	for _, al := range p.stages[t] {
		v := 0.0
		for s := range b {
			v += b[s] * al.v[s]
		}
		if v > best {
			best = v
		}
	}
	return best
}

// Value implements Policy using the full horizon.
func (p *FiniteHorizonPolicy) Value(b Belief) float64 { return p.ValueAt(b, p.Horizon()) }

// Action implements Policy: the maximizing vector's action at full horizon.
func (p *FiniteHorizonPolicy) Action(b Belief) int {
	best, bestA := math.Inf(-1), 0
	for _, al := range p.stages[p.Horizon()] {
		v := 0.0
		for s := range b {
			v += b[s] * al.v[s]
		}
		if v > best {
			best, bestA = v, al.action
		}
	}
	return bestA
}
