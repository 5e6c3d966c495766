package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nmdetect/internal/scenario"
)

// Report renders the full evaluation as a self-contained markdown document —
// the machine-written counterpart of EXPERIMENTS.md, regenerated by
// `nmrepro -report`.
type Report struct {
	// Spec is the scenario every experiment of the report ran.
	Spec     scenario.Spec
	Fig3     *PredictionResult
	Fig4     *PredictionResult
	Fig5     *Fig5Result
	Fig6     *Fig6Result
	Table1   *Table1Result
	Headline Headline
	// Attacks is the optional detection-accuracy-vs-archetype sweep
	// (`nmrepro -experiment attacks`); nil when the sweep was not run.
	Attacks *AttackSweepResult `json:",omitempty"`
	// Generated stamps the report (callers pass time.Now(); kept explicit
	// so report generation stays a pure function for tests).
	Generated time.Time
}

// WriteJSON writes the report as indented JSON. Every float in a report is
// finite by construction — the experiment builders guard their PAR and
// accuracy metrics through metrics.Finite/FinitePAR — so the encoding
// round-trips; a non-finite value sneaking past the guards is reported as an
// error here rather than emitting an unparseable document.
func (r *Report) WriteJSON(w io.Writer) error {
	if r.Fig3 == nil || r.Fig4 == nil || r.Fig5 == nil || r.Fig6 == nil || r.Table1 == nil {
		return fmt.Errorf("experiments: report is missing results")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("experiments: encode report: %w", err)
	}
	return nil
}

// paperValues are the numbers the paper reports, for side-by-side rows.
var paperValues = struct {
	fig3PAR, fig4PAR, fig5PAR        float64
	awareAcc, blindAcc               float64
	t1None, t1Blind, t1Aware, labor  float64
	parGain, inflBlind, inflAware    float64
	accGain, parReduction, laborOver float64
}{
	fig3PAR: 1.4700, fig4PAR: 1.3986, fig5PAR: 1.9037,
	awareAcc: 0.9514, blindAcc: 0.6595,
	t1None: 1.6509, t1Blind: 1.5422, t1Aware: 1.4112, labor: 1.0067,
	parGain: 0.0511, inflBlind: 0.2950, inflAware: 0.3611,
	accGain: 0.2919, parReduction: 0.0849, laborOver: 0.0067,
}

// Render writes the markdown report.
func (r *Report) Render(w io.Writer) error {
	if r.Fig3 == nil || r.Fig4 == nil || r.Fig5 == nil || r.Fig6 == nil || r.Table1 == nil {
		return fmt.Errorf("experiments: report is missing results")
	}
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# Reproduction report\n\n")
	p("Generated %s · community N=%d · seed %d · %d bootstrap days · solver %s\n\n",
		r.Generated.Format("2006-01-02 15:04"), r.Spec.N, r.Spec.Seed, r.Spec.Horizon.BootstrapDays, r.Spec.Detector.Solver)

	p("## Figures\n\n")
	p("| Experiment | Quantity | Paper | Measured |\n|---|---|---|---|\n")
	p("| Figure 3 | predicted-load PAR (NM-blind) | %.4f | %.4f |\n", paperValues.fig3PAR, r.Fig3.PAR)
	p("| Figure 3 | price RMSE | — | %.5f |\n", r.Fig3.PriceRMSE)
	p("| Figure 4 | predicted-load PAR (NM-aware) | %.4f | %.4f |\n", paperValues.fig4PAR, r.Fig4.PAR)
	p("| Figure 4 | price RMSE | — | %.5f |\n", r.Fig4.PriceRMSE)
	p("| Figure 5 | attacked-load PAR | %.4f | %.4f |\n", paperValues.fig5PAR, r.Fig5.PAR)
	p("| Figure 5 | malicious peak slot | 16–17 | %d |\n", r.Fig5.PeakSlot)
	p("| Figure 6 | observation accuracy (NM-aware) | %.2f%% | %.2f%% |\n",
		100*paperValues.awareAcc, 100*r.Fig6.AwareAccuracy)
	p("| Figure 6 | observation accuracy (NM-blind) | %.2f%% | %.2f%% |\n",
		100*paperValues.blindAcc, 100*r.Fig6.BlindAccuracy)

	p("\n## Table 1\n\n")
	p("| Technique | PAR (paper) | PAR (measured) | Inspections | Labor (norm.) |\n|---|---|---|---|---|\n")
	p("| No detection | %.4f | %.4f | %d | — |\n",
		paperValues.t1None, r.Table1.NoDetection.PAR, r.Table1.NoDetection.Inspections)
	p("| NM-blind detection | %.4f | %.4f | %d | %.4f |\n",
		paperValues.t1Blind, r.Table1.Blind.PAR, r.Table1.Blind.Inspections, r.Table1.Blind.LaborCost)
	p("| NM-aware detection | %.4f | %.4f | %d | %.4f |\n",
		paperValues.t1Aware, r.Table1.Aware.PAR, r.Table1.Aware.Inspections, r.Table1.Aware.LaborCost)

	p("\n## Headline claims\n\n")
	p("| Claim | Paper | Measured |\n|---|---|---|\n")
	p("| NM-blind vs NM-aware predicted PAR | %+.2f%% | %+.2f%% |\n",
		100*paperValues.parGain, 100*r.Headline.Fig3VsFig4PARGain)
	p("| Attack PAR inflation vs NM-blind prediction | %+.2f%% | %+.2f%% |\n",
		100*paperValues.inflBlind, 100*r.Headline.AttackInflationVsBlind)
	p("| Attack PAR inflation vs NM-aware prediction | %+.2f%% | %+.2f%% |\n",
		100*paperValues.inflAware, 100*r.Headline.AttackInflationVsAware)
	p("| Observation accuracy gain | %+.2f pts | %+.2f pts |\n",
		100*paperValues.accGain, 100*r.Headline.AccuracyGain)
	p("| PAR reduction by NM-aware detection | %.2f%% | %.2f%% |\n",
		100*paperValues.parReduction, 100*r.Headline.PARReduction)
	p("| Labor overhead of NM awareness | %+.2f%% | %+.2f%% |\n",
		100*paperValues.laborOver, 100*r.Headline.LaborOverhead)

	if r.Attacks != nil && len(r.Attacks.Rows) > 0 {
		p("\n## Attack archetypes\n\n")
		p("| Archetype | Payload | Accuracy | PAR | Inspections | Episodes answered | Mean delay (slots) |\n|---|---|---|---|---|---|---|\n")
		for _, row := range r.Attacks.Rows {
			delay := "—"
			if row.MeanDelay >= 0 {
				delay = fmt.Sprintf("%.1f", row.MeanDelay)
			}
			p("| %s | %s | %.2f%% | %.4f | %d | %d/%d | %s |\n",
				row.Archetype, row.Payload, 100*row.Accuracy, row.PAR,
				row.Inspections, row.Answered, row.Episodes, delay)
		}
	}

	p("\nSee DESIGN.md for the substitution table and mechanism notes; absolute\n")
	p("levels depend on the synthetic community, orderings and directions are\n")
	p("the reproduction targets.\n")
	return nil
}
