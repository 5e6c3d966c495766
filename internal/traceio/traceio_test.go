package traceio

import (
	"bytes"
	"strings"
	"testing"

	"nmdetect/internal/tariff"
)

func sampleRows() []Row {
	return []Row{
		{Day: 0, Slot: 0, Price: 0.06, Renewable: 0, Load: 40.5, GridDemand: 41.2, Hacked: 0},
		{Day: 0, Slot: 1, Price: 0.0612345, Renewable: 1.25, Load: 38.1, GridDemand: 36.9, Hacked: 3},
		{Day: 1, Slot: 23, Price: 0.055, Renewable: 0, Load: 52.0, GridDemand: 52.0, Hacked: 12},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	rows := sampleRows()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], rows[i])
		}
	}
}

func TestTraceEmptyRows(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("rows = %d", len(got))
	}
}

func TestReadTraceRejects(t *testing.T) {
	cases := []string{
		"",
		"wrong,header\n1,2\n",
		"day,slot,price,renewable,load,grid_demand,hacked\nx,0,1,2,3,4,5\n",
		"day,slot,price,renewable,load,grid_demand,hacked\n0,0,notafloat,2,3,4,5\n",
	}
	for i, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	h := tariff.History{}
	for i := 0; i < 48; i++ {
		h.Append(0.05+float64(i)/1000, float64(i%24), 40+float64(i))
	}
	var buf bytes.Buffer
	if err := WriteHistory(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != h.Len() {
		t.Fatalf("length = %d", got.Len())
	}
	for i := 0; i < h.Len(); i++ {
		if got.Price[i] != h.Price[i] || got.Renewable[i] != h.Renewable[i] || got.Demand[i] != h.Demand[i] {
			t.Fatalf("slot %d differs", i)
		}
	}
}

func TestWriteHistoryRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHistory(&buf, tariff.History{}); err == nil {
		t.Fatal("empty history accepted")
	}
}

func TestReadHistoryRejects(t *testing.T) {
	cases := []string{
		"",
		"bad,header,x,y\n",
		"slot,price,renewable,demand\n0,x,1,2\n",
	}
	for i, c := range cases {
		if _, err := ReadHistory(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFloatPrecisionSurvives(t *testing.T) {
	// Shortest-representation formatting: arbitrary values round-trip.
	rows := []Row{{Price: 0.123456, Load: 99.000001}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Price != 0.123456 || got[0].Load != 99.000001 {
		t.Fatalf("precision lost: %+v", got[0])
	}
}
