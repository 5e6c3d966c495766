// Command nmsched schedules a single household's appliances against a
// guideline price — the smart controller of Section 2.1 as a standalone
// tool. It reads a household spec (JSON, see internal/household.Spec) and a
// 24-slot price (CSV "slot,price" or built-in default), runs the DP
// appliance scheduler and, if the household has PV and a battery, the
// cross-entropy storage optimization, and prints the resulting schedule and
// cost.
//
// Usage:
//
//	nmsched -spec household.json [-price price.csv] [-pv-scale 1.0] [-seed 1]
//	        [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"nmdetect/internal/cli"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

func main() { cli.Main("nmsched", run) }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nmsched", flag.ContinueOnError)
	var (
		specPath  = fs.String("spec", "", "household spec JSON (required)")
		pricePath = fs.String("price", "", "price CSV 'slot,price' (default: built-in TOU shape)")
		pvScale   = fs.Float64("pv-scale", 1.0, "clear-sky PV scale for the day")
		seed      = fs.Uint64("seed", 1, "controller seed")
		obsCfg    = cli.ObsFlags(fs)
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	obsCfg.Cmd, obsCfg.Seed, obsCfg.Workers = "nmsched", *seed, 1
	if err := obs.Setup(*obsCfg); err != nil {
		return err
	}

	if *specPath == "" {
		return exitcode.AsValidation(fmt.Errorf("-spec is required"))
	}
	f, err := os.Open(*specPath)
	if err != nil {
		return err
	}
	customer, err := household.ParseSpec(f, 0)
	f.Close()
	if err != nil {
		return exitcode.AsValidation(err)
	}

	price, err := loadPrice(*pricePath)
	if err != nil {
		return exitcode.AsValidation(err)
	}

	// Realize the household's PV for a clear day at the requested scale.
	pv := make([]float64, 24)
	if customer.HasPV() {
		model := solar.DefaultModel()
		model.CloudSigma = 0.001
		trace := model.GenerateDay(customer.Panel, solar.Clear, rng.New(*seed).Derive("pv"))
		for h, v := range trace {
			pv[h] = v * *pvScale
		}
	}

	q, err := tariff.NewQuadratic(1.5)
	if err != nil {
		return err
	}
	cfg := game.DefaultConfig(q, customer.HasPV())
	cfg.MaxSweeps = 3
	var src *rng.Source
	var pvIn [][]float64
	if customer.HasPV() {
		src = rng.New(*seed)
		pvIn = [][]float64{pv}
	}
	res, err := game.Solve(ctx, nil, []*household.Customer{customer}, price, pvIn, cfg, src)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "slot,price,pv_kw,consumption_kw,net_flow_kw,battery_kwh")
	for h := 0; h < 24; h++ {
		batt := 0.0
		if res.BatteryTraj[0] != nil {
			batt = res.BatteryTraj[0][h]
		}
		fmt.Fprintf(stdout, "%d,%.5f,%.3f,%.3f,%.3f,%.3f\n",
			h, price[h], pv[h], res.CustomerLoad[0][h], res.CustomerTrading[0][h], batt)
	}
	fmt.Fprintf(os.Stderr, "nmsched: daily cost %.4f; consumption %.2f kWh; PV %.2f kWh\n",
		res.Cost[0], res.Load.Sum(), timeseries.Series(pv).Sum())
	return nil
}

// loadPrice reads a "slot,price" CSV (header optional) or returns the
// built-in time-of-use shape.
func loadPrice(path string) (timeseries.Series, error) {
	price := make(timeseries.Series, 24)
	if path == "" {
		form := tariff.DefaultFormation()
		for h := 0; h < 24; h++ {
			price[h] = form.Base[h]
		}
		return price, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	filled := 0
	for i, rec := range records {
		if len(rec) < 2 {
			return nil, fmt.Errorf("nmsched: price row %d has %d fields", i, len(rec))
		}
		slot, err1 := strconv.Atoi(rec[0])
		if err1 != nil {
			if i == 0 {
				continue // header
			}
			return nil, fmt.Errorf("nmsched: price row %d: %v", i, err1)
		}
		v, err2 := strconv.ParseFloat(rec[1], 64)
		if err2 != nil {
			return nil, fmt.Errorf("nmsched: price row %d: %v", i, err2)
		}
		if slot < 0 || slot >= 24 {
			return nil, fmt.Errorf("nmsched: slot %d out of range", slot)
		}
		price[slot] = v
		filled++
	}
	if filled != 24 {
		return nil, fmt.Errorf("nmsched: price covers %d slots, want 24", filled)
	}
	return price, nil
}
