package mitigate

import (
	"math"
	"testing"

	"nmdetect/internal/attack"
	"nmdetect/internal/timeseries"
)

func predicted24() timeseries.Series {
	p := make(timeseries.Series, 24)
	for h := range p {
		p[h] = 0.06 + 0.03*float64(h%8)/8
	}
	return p
}

func TestDefaultFilterValid(t *testing.T) {
	if err := DefaultFilter().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Filter{
		{MinRatio: 0, MaxRatio: 2, AbsFloor: 0},
		{MinRatio: 2, MaxRatio: 1, AbsFloor: 0},
		{MinRatio: 0.5, MaxRatio: 2, AbsFloor: -1},
	}
	for i, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSanitizeCleanPriceUntouched(t *testing.T) {
	pred := predicted24()
	// Received deviates mildly (±20%) — inside the band.
	recv := pred.Clone()
	for h := range recv {
		if h%2 == 0 {
			recv[h] *= 1.2
		} else {
			recv[h] *= 0.8
		}
	}
	out, touched, err := DefaultFilter().Sanitize(recv, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != 0 {
		t.Fatalf("clean price clamped at %v", touched)
	}
	for h := range out {
		if out[h] != recv[h] {
			t.Fatal("clean price modified")
		}
	}
}

func TestSanitizeDefusesZeroWindowAttack(t *testing.T) {
	pred := predicted24()
	attacked := attack.ZeroWindow{From: 16, To: 17}.Apply(pred)
	out, touched, err := DefaultFilter().Sanitize(attacked, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != 2 || touched[0] != 16 || touched[1] != 17 {
		t.Fatalf("touched = %v, want [16 17]", touched)
	}
	for _, h := range touched {
		want := 0.4 * pred[h]
		if math.Abs(out[h]-want) > 1e-12 {
			t.Fatalf("slot %d clamped to %v, want %v", h, out[h], want)
		}
	}
	// Other slots untouched.
	if out[15] != attacked[15] {
		t.Fatal("untampered slot modified")
	}
}

func TestSanitizeClampsInflatedPrices(t *testing.T) {
	pred := predicted24()
	recv := pred.Clone()
	recv[5] = pred[5] * 10
	out, touched, err := DefaultFilter().Sanitize(recv, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != 1 || touched[0] != 5 {
		t.Fatalf("touched = %v", touched)
	}
	if math.Abs(out[5]-2.5*pred[5]) > 1e-12 {
		t.Fatalf("clamped to %v", out[5])
	}
}

func TestSanitizeAbsFloor(t *testing.T) {
	// A near-zero prediction must not let a zero attack through: the
	// absolute floor binds.
	pred := timeseries.Series{0.0001, 0.06}
	recv := timeseries.Series{0, 0.06}
	out, touched, err := DefaultFilter().Sanitize(recv, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != 1 || out[0] != 0.001 {
		t.Fatalf("floor not applied: %v, touched %v", out, touched)
	}
}

func TestSanitizeErrors(t *testing.T) {
	pred := predicted24()
	if _, _, err := DefaultFilter().Sanitize(pred[:3], pred); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := DefaultFilter().Sanitize(timeseries.Series{}, timeseries.Series{}); err == nil {
		t.Error("empty price accepted")
	}
	bad := Filter{MinRatio: 2, MaxRatio: 1}
	if _, _, err := bad.Sanitize(pred, pred); err == nil {
		t.Error("invalid filter accepted")
	}
}

func TestSanitizeDoesNotMutateInput(t *testing.T) {
	pred := predicted24()
	attacked := attack.ZeroWindow{From: 16, To: 17}.Apply(pred)
	before := attacked.Clone()
	if _, _, err := DefaultFilter().Sanitize(attacked, pred); err != nil {
		t.Fatal(err)
	}
	for h := range attacked {
		if attacked[h] != before[h] {
			t.Fatal("Sanitize mutated its input")
		}
	}
}
