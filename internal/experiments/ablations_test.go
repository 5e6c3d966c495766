package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestAblationSolver(t *testing.T) {
	spec := fastSpec(42)
	rows, err := AblationSolver(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[string(r.Solver)] = true
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("%s accuracy = %v", r.Solver, r.Accuracy)
		}
		if r.PAR < 1 {
			t.Fatalf("%s PAR = %v", r.Solver, r.PAR)
		}
	}
	if !seen["pbvi"] || !seen["qmdp"] || !seen["threshold"] {
		t.Fatalf("missing solvers: %v", seen)
	}
	var buf bytes.Buffer
	RenderSolverAblation(&buf, rows)
	if !strings.Contains(buf.String(), "pbvi") {
		t.Fatal("render missing solver")
	}
}

func TestAblationKernel(t *testing.T) {
	spec := fastSpec(42)
	rows, err := AblationKernel(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BlindRMSE <= 0 || r.AwareRMSE <= 0 {
			t.Fatalf("%s has non-positive RMSE", r.Kernel)
		}
	}
	var buf bytes.Buffer
	RenderKernelAblation(&buf, rows)
	if !strings.Contains(buf.String(), "linear") {
		t.Fatal("render missing kernel")
	}
}

func TestAblationForecastNoise(t *testing.T) {
	spec := fastSpec(42)
	rows, err := AblationForecastNoise(context.Background(), spec, []float64{0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Perfect forecast: no false positives. Noisy forecast: strictly more.
	if rows[0].FP != 0 {
		t.Fatalf("sigma=0 fp = %v", rows[0].FP)
	}
	if rows[1].FP <= rows[0].FP {
		t.Fatalf("noise did not raise fp: %v vs %v", rows[1].FP, rows[0].FP)
	}
	var buf bytes.Buffer
	RenderForecastNoiseAblation(&buf, rows)
	if !strings.Contains(buf.String(), "sigma") {
		t.Fatal("render missing header")
	}
}

func TestAblationTau(t *testing.T) {
	spec := fastSpec(42)
	rows, err := AblationTau(context.Background(), spec, []float64{0.5, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Raising tau cannot increase false positives.
	if rows[1].AwareFP > rows[0].AwareFP+1e-9 || rows[1].BlindFP > rows[0].BlindFP+1e-9 {
		t.Fatalf("fp increased with tau: %+v", rows)
	}
	// And cannot decrease false negatives.
	if rows[1].AwareFN < rows[0].AwareFN-1e-9 {
		t.Fatalf("aware fn decreased with tau: %+v", rows)
	}
	var buf bytes.Buffer
	RenderTauAblation(&buf, rows)
	if !strings.Contains(buf.String(), "tau") {
		t.Fatal("render missing header")
	}
}

func TestAblationSellBack(t *testing.T) {
	spec := fastSpec(42)
	rows, err := AblationSellBack(context.Background(), spec, []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LoadPAR < 1 || r.GridEnergyNet < 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	// Paying sellers less (larger W) cannot make the community richer.
	if rows[2].TotalCost < rows[0].TotalCost-1e-6 {
		t.Fatalf("W=4 cost %v below W=1 cost %v", rows[2].TotalCost, rows[0].TotalCost)
	}
	var buf bytes.Buffer
	RenderSellBackAblation(&buf, rows)
	if !strings.Contains(buf.String(), "grid energy") {
		t.Fatal("render missing header")
	}
}

func TestAblationAttacks(t *testing.T) {
	spec := fastSpec(42)
	rows, err := AblationAttacks(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]AttackRow{}
	for _, r := range rows {
		byName[r.Attack] = r
	}
	clean, ok := byName["none"]
	if !ok {
		t.Fatal("missing clean control")
	}
	if clean.Detected {
		t.Fatal("clean day flagged as attack")
	}
	if clean.CostIncrease != 0 {
		t.Fatalf("clean cost increase = %v", clean.CostIncrease)
	}
	zero, ok := byName["zero-window[16,17]"]
	if !ok {
		t.Fatalf("missing zero-window row: %v", byName)
	}
	// The PAR attack must inflate PAR beyond the clean day and be detected.
	if zero.PAR <= clean.PAR {
		t.Fatalf("zero-window PAR %v not above clean %v", zero.PAR, clean.PAR)
	}
	if !zero.Detected {
		t.Fatal("zero-window attack undetected")
	}
	// The bill-maximizing inversion barely moves PAR: the single-event PAR
	// check must NOT see it (the blind spot motivating long-term detection).
	if inv, ok := byName["invert"]; ok && inv.Detected {
		t.Fatalf("inversion detected by the PAR check (ΔPAR %v)", inv.DeltaPAR)
	}
	var buf bytes.Buffer
	RenderAttackAblation(&buf, rows)
	if !strings.Contains(buf.String(), "zero-window") {
		t.Fatal("render missing attack")
	}
}

func TestAblationAttackWindow(t *testing.T) {
	spec := fastSpec(42)
	rows, err := AblationAttackWindow(context.Background(), spec, []int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The evening window coincides with the flexible-load mass and must do
	// more PAR damage than the small-hours window.
	if rows[1].PAR <= rows[0].PAR {
		t.Fatalf("evening window PAR %v not above night window %v", rows[1].PAR, rows[0].PAR)
	}
	if _, err := AblationAttackWindow(context.Background(), spec, []int{23}); err == nil {
		t.Error("out-of-range window accepted")
	}
	var buf bytes.Buffer
	RenderWindowSweep(&buf, rows)
	if !strings.Contains(buf.String(), "16:00") {
		t.Fatal("render missing window")
	}
}

func TestAblationBattery(t *testing.T) {
	spec := fastSpec(42)
	rows, err := AblationBattery(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	with, without := rows[0], rows[1]
	if with.Variant != "with-batteries" || without.Variant != "no-batteries" {
		t.Fatalf("variants = %v", rows)
	}
	// Storage can only help: the battery-equipped community pays no more.
	if with.TotalCost > without.TotalCost+1e-6 {
		t.Fatalf("batteries raised cost: %v vs %v", with.TotalCost, without.TotalCost)
	}
	var buf bytes.Buffer
	RenderBatteryAblation(&buf, rows)
	if !strings.Contains(buf.String(), "no-batteries") {
		t.Fatal("render missing variant")
	}
}

func TestMitigation(t *testing.T) {
	spec := fastSpec(42)
	res, err := Mitigation(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The attack inflates PAR; the filter must recover most of it.
	if res.AttackedPAR <= res.CleanPAR {
		t.Fatalf("attack did not inflate PAR: %+v", res)
	}
	if res.FilteredPAR >= res.AttackedPAR {
		t.Fatalf("filter did not reduce attacked PAR: %+v", res)
	}
	// The filter must have touched exactly the two zeroed slots.
	if res.ClampedSlots != 2 {
		t.Fatalf("clamped slots = %d, want 2", res.ClampedSlots)
	}
	// Recovery: filtered PAR within 40% of the clean-attacked gap from clean.
	gap := res.AttackedPAR - res.CleanPAR
	if res.FilteredPAR > res.CleanPAR+0.6*gap {
		t.Fatalf("filter recovered too little: %+v", res)
	}
}

func TestAblationsRejectBadConfig(t *testing.T) {
	bad := fastSpec(1)
	bad.N = 1
	if _, err := AblationSolver(context.Background(), bad); err == nil {
		t.Error("solver ablation accepted bad config")
	}
	if _, err := AblationKernel(context.Background(), bad); err == nil {
		t.Error("kernel ablation accepted bad config")
	}
	if _, err := AblationForecastNoise(context.Background(), bad, []float64{0}); err == nil {
		t.Error("noise ablation accepted bad config")
	}
	if _, err := AblationTau(context.Background(), bad, []float64{0.5}); err == nil {
		t.Error("tau ablation accepted bad config")
	}
	if _, err := AblationSellBack(context.Background(), bad, []float64{1}); err == nil {
		t.Error("sell-back ablation accepted bad config")
	}
	if _, err := AblationAttacks(context.Background(), bad); err == nil {
		t.Error("attack ablation accepted bad config")
	}
}
