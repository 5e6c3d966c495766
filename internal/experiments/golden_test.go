package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nmdetect/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current implementation")

// goldenResults pins the headline numbers of the figure/table pipeline on a
// small seeded configuration. Floats survive the JSON round trip exactly
// (Go marshals the shortest representation that parses back to the same
// bits), so comparisons below are bitwise, not approximate.
type goldenResults struct {
	Fig3PAR       float64 `json:"fig3_par"`
	Fig3PriceRMSE float64 `json:"fig3_price_rmse"`
	Fig4PAR       float64 `json:"fig4_par"`
	Fig5PAR       float64 `json:"fig5_par"`
	Fig5PeakSlot  int     `json:"fig5_peak_slot"`
	Fig6Aware     float64 `json:"fig6_aware_accuracy"`
	Fig6Blind     float64 `json:"fig6_blind_accuracy"`
	Table1        Table1Result
}

// goldenSpec is the fixed seed-42 community the golden file records. Any
// change here invalidates testdata/golden.json — regenerate with -update and
// justify the diff in review.
func goldenSpec() scenario.Spec {
	s := scenario.Default(16, 42)
	s.Horizon.BootstrapDays = 4
	s.Horizon.MonitorDays = 1
	s.Game.Sweeps = 2
	s.Detector.Solver = "qmdp"
	return s
}

func computeGolden(t *testing.T) goldenResults {
	t.Helper()
	ctx := context.Background()
	spec := goldenSpec()

	f3, err := Fig3(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Fig5(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := Fig6(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Table1(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	return goldenResults{
		Fig3PAR:       f3.PAR,
		Fig3PriceRMSE: f3.PriceRMSE,
		Fig4PAR:       f4.PAR,
		Fig5PAR:       f5.PAR,
		Fig5PeakSlot:  f5.PeakSlot,
		Fig6Aware:     f6.AwareAccuracy,
		Fig6Blind:     f6.BlindAccuracy,
		Table1:        *tab,
	}
}

// TestGoldenHeadlineNumbers locks the end-to-end pipeline: any change to the
// solvers, the engine, the forecasters or the detectors that shifts a single
// headline number fails here. Perf refactors (workspaces, active-set gating
// at ActiveTol=0) must leave every value bitwise intact. To accept an
// intentional change: go test ./internal/experiments -run Golden -update
func TestGoldenHeadlineNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pipeline run skipped in -short mode")
	}
	path := filepath.Join("testdata", "golden.json")
	got := computeGolden(t)

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want goldenResults
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}

	pinF := func(name string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s = %v, golden %v (bitwise mismatch)", name, g, w)
		}
	}
	pinF("Fig3.PAR", got.Fig3PAR, want.Fig3PAR)
	pinF("Fig3.PriceRMSE", got.Fig3PriceRMSE, want.Fig3PriceRMSE)
	pinF("Fig4.PAR", got.Fig4PAR, want.Fig4PAR)
	pinF("Fig5.PAR", got.Fig5PAR, want.Fig5PAR)
	if got.Fig5PeakSlot != want.Fig5PeakSlot {
		t.Errorf("Fig5.PeakSlot = %d, golden %d", got.Fig5PeakSlot, want.Fig5PeakSlot)
	}
	pinF("Fig6.AwareAccuracy", got.Fig6Aware, want.Fig6Aware)
	pinF("Fig6.BlindAccuracy", got.Fig6Blind, want.Fig6Blind)
	for _, row := range []struct {
		name      string
		got, want Table1Row
	}{
		{"NoDetection", got.Table1.NoDetection, want.Table1.NoDetection},
		{"Blind", got.Table1.Blind, want.Table1.Blind},
		{"Aware", got.Table1.Aware, want.Table1.Aware},
	} {
		if row.got.Technique != row.want.Technique || row.got.Inspections != row.want.Inspections {
			t.Errorf("Table1.%s = %+v, golden %+v", row.name, row.got, row.want)
		}
		pinF("Table1."+row.name+".PAR", row.got.PAR, row.want.PAR)
		pinF("Table1."+row.name+".LaborCost", row.got.LaborCost, row.want.LaborCost)
	}
}
