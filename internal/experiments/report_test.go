package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"nmdetect/internal/timeseries"
)

// testReport builds a fully populated report with hand-picked values.
func testReport() *Report {
	day := make(timeseries.Series, 24)
	for h := range day {
		day[h] = 1 + float64(h%3)
	}
	return &Report{
		Spec: fastSpec(42),
		Fig3: &PredictionResult{Received: day, Predicted: day, PredictedLoad: day, PAR: 1.47, PriceRMSE: 0.01},
		Fig4: &PredictionResult{Received: day, Predicted: day, PredictedLoad: day, PAR: 1.3986, PriceRMSE: 0.008},
		Fig5: &Fig5Result{Published: day, Manipulated: day, AttackedLoad: day, PAR: 1.9037, PeakSlot: 16},
		Fig6: &Fig6Result{
			AwareAccuracy: 0.9514, BlindAccuracy: 0.6595,
			AwareBySlot: []float64{1, 0.95}, BlindBySlot: []float64{1, 0.66}, Slots: 48,
		},
		Table1: &Table1Result{
			NoDetection: Table1Row{Technique: "no-detection", PAR: 1.6509},
			Blind:       Table1Row{Technique: "nm-blind", PAR: 1.5422, Inspections: 3, LaborCost: 1},
			Aware:       Table1Row{Technique: "net-metering-aware", PAR: 1.4112, Inspections: 3, LaborCost: 1.0067},
		},
		Headline:  Headline{Fig3VsFig4PARGain: 0.0511},
		Generated: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
	}
}

// TestReportJSONRoundTrip: every value a report carries must survive a JSON
// encode/decode cycle. This is the regression test for the PAR = +Inf bug —
// encoding/json cannot represent non-finite floats, so the builders guard
// every metric through metrics.Finite/FinitePAR before it lands in a report.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := testReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Fig3.PAR != rep.Fig3.PAR || back.Fig5.PAR != rep.Fig5.PAR {
		t.Errorf("PARs changed in round trip: %v %v", back.Fig3.PAR, back.Fig5.PAR)
	}
	if back.Table1.Aware != rep.Table1.Aware {
		t.Errorf("Table1 aware row changed: %+v != %+v", back.Table1.Aware, rep.Table1.Aware)
	}
	if !back.Generated.Equal(rep.Generated) {
		t.Errorf("timestamp changed: %v != %v", back.Generated, rep.Generated)
	}
	if back.Spec.ID() != rep.Spec.ID() {
		t.Errorf("spec changed: %+v", back.Spec)
	}
}

// TestWriteJSONRejectsIncomplete mirrors Render's missing-results guard.
func TestWriteJSONRejectsIncomplete(t *testing.T) {
	rep := testReport()
	rep.Fig6 = nil
	if err := rep.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteJSON accepted a report with missing results")
	}
}
