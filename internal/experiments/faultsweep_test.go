package experiments

import (
	"context"
	"math"
	"testing"

	"nmdetect/internal/faultinject"
)

func TestFaultSweepZeroScaleMatchesBaseline(t *testing.T) {
	spec := fastSpec(42)
	base := faultinject.DefaultConfig(spec.Seed)
	sweep, err := FaultSweep(context.Background(), spec, base, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(sweep.Points))
	}

	// The anchor: scale 0 is the fault-free world, so the sweep's first
	// point must reproduce the Table-1 NM-aware row exactly.
	t1, err := Table1(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	zero := sweep.Points[0]
	if math.Float64bits(zero.PAR) != math.Float64bits(t1.Aware.PAR) {
		t.Fatalf("zero-fault PAR %v != Table-1 aware PAR %v", zero.PAR, t1.Aware.PAR)
	}
	if zero.ImputedReadings != 0 || zero.DegradedDays != 0 || zero.MeanConfidence != 1 {
		t.Fatalf("zero-fault point reports degradation: %+v", zero)
	}

	// At scale 1 the default plan injects dropouts: degradation counters
	// must be live and confidence below 1.
	one := sweep.Points[1]
	if one.ImputedReadings == 0 {
		t.Fatal("default fault plan imputed nothing")
	}
	if one.MeanConfidence >= 1 || one.MeanConfidence <= 0 {
		t.Fatalf("confidence %v out of (0,1)", one.MeanConfidence)
	}
	if one.Accuracy < 0 || one.Accuracy > 1 {
		t.Fatalf("accuracy %v out of [0,1]", one.Accuracy)
	}
	t.Logf("accuracy: clean %.4f, faulty %.4f (confidence %.4f)",
		zero.Accuracy, one.Accuracy, one.MeanConfidence)
}

func TestFaultSweepValidation(t *testing.T) {
	spec := fastSpec(42)
	if _, err := FaultSweep(context.Background(), spec, faultinject.Config{}, nil); err == nil {
		t.Error("empty scale list accepted")
	}
	if _, err := FaultSweep(context.Background(), spec, faultinject.Config{DropoutRate: 2}, []float64{0}); err == nil {
		t.Error("invalid base config accepted")
	}
}
