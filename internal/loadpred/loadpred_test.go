package loadpred

import (
	"context"
	"testing"

	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

func community(t *testing.T, n int) ([]*household.Customer, [][]float64) {
	t.Helper()
	g := household.DefaultGenerator()
	customers, err := g.Generate(n, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	pv, err := household.CommunityPVTraces(customers, solar.DefaultModel(), 1, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	return customers, pv
}

func cfg(t *testing.T, nm bool) game.Config {
	t.Helper()
	q, err := tariff.NewQuadratic(1.5)
	if err != nil {
		t.Fatal(err)
	}
	c := game.DefaultConfig(q, nm)
	c.MaxSweeps = 2
	return c
}

func price24() timeseries.Series {
	p := make(timeseries.Series, 24)
	for h := range p {
		p[h] = 0.06 + 0.04*float64(h%12)/12
	}
	return p
}

func TestNewValidation(t *testing.T) {
	customers, pv := community(t, 5)
	if _, err := New(nil, cfg(t, false), nil, 1); err == nil {
		t.Error("empty community accepted")
	}
	if _, err := New(customers, cfg(t, true), nil, 1); err == nil {
		t.Error("missing pv accepted in NM mode")
	}
	bad := cfg(t, false)
	bad.MaxSweeps = 0
	if _, err := New(customers, bad, nil, 1); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(customers, cfg(t, true), pv, 1); err != nil {
		t.Error(err)
	}
}

func TestPredictCaches(t *testing.T) {
	customers, _ := community(t, 5)
	p, err := New(customers, cfg(t, false), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	price := price24()
	r1, err := p.Predict(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Predict(context.Background(), price.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical prices not served from cache")
	}
	if len(p.cache) != 1 {
		t.Fatalf("cache size = %d", len(p.cache))
	}
	other := price.ScaleBy(2)
	if _, err := p.Predict(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if len(p.cache) != 2 {
		t.Fatalf("cache size after second price = %d", len(p.cache))
	}
}

func TestPredictLoadModes(t *testing.T) {
	customers, pv := community(t, 8)
	price := price24()

	blind, err := New(customers, cfg(t, false), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	blindLoad, err := blind.PredictLoad(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	res, err := blind.Predict(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	for h := range blindLoad {
		if blindLoad[h] != res.Load[h] {
			t.Fatal("blind mode must report consumption")
		}
	}

	aware, err := New(customers, cfg(t, true), pv, 7)
	if err != nil {
		t.Fatal(err)
	}
	awareLoad, err := aware.PredictLoad(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	for h, v := range awareLoad {
		if v < 0 {
			t.Fatalf("negative load of record at %d", h)
		}
	}
	// The load of record is consumption in both modes…
	awareRes, err := aware.Predict(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	for h := range awareLoad {
		if awareLoad[h] != awareRes.Load[h] {
			t.Fatal("NM load of record must be consumption")
		}
	}
	// …while grid demand is reduced below consumption by solar self-use.
	if grid := awareRes.GridDemand.Sum(); grid >= awareRes.Load.Sum() {
		t.Fatalf("NM grid energy %v not below consumption %v", grid, awareRes.Load.Sum())
	}
}

func TestPredictPARMatchesLoad(t *testing.T) {
	customers, _ := community(t, 6)
	p, err := New(customers, cfg(t, false), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	price := price24()
	par, err := p.PredictPAR(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	load, err := p.PredictLoad(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	if par != load.PAR() {
		t.Fatalf("PredictPAR %v != load PAR %v", par, load.PAR())
	}
	if par < 1 {
		t.Fatalf("PAR %v below 1", par)
	}
}

func TestHashSeriesDistinguishes(t *testing.T) {
	a := timeseries.Series{1, 2, 3}
	b := timeseries.Series{1, 2, 3.0000001}
	if hashSeries(a) == hashSeries(b) {
		t.Fatal("hash collision on different series")
	}
	if hashSeries(a) != hashSeries(a.Clone()) {
		t.Fatal("hash differs for equal series")
	}
	// Length must be part of the key.
	if hashSeries(timeseries.Series{}) == hashSeries(timeseries.Series{0}) {
		t.Fatal("hash ignores length")
	}
}

func TestLoadOfRecordIsConsumption(t *testing.T) {
	res := &game.Result{
		Load:       timeseries.Series{5, 5},
		GridDemand: timeseries.Series{3, -2},
	}
	for _, nm := range []bool{true, false} {
		got := LoadOfRecord(res, nm)
		if got[0] != 5 || got[1] != 5 {
			t.Fatalf("load of record (nm=%v) = %v", nm, got)
		}
	}
	// And it must be a copy, not an alias.
	lr := LoadOfRecord(res, true)
	lr[0] = 99
	if res.Load[0] != 5 {
		t.Fatal("LoadOfRecord aliases the result")
	}
}
