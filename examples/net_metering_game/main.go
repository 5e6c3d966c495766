// Net metering game: runs Algorithm 1 — the Net Metering Aware Energy
// Consumption Scheduling Game — on a small community and prints how the
// cross-entropy battery optimization and DP appliance scheduling interact:
// solar charges the battery midday, the battery discharges into the evening
// peak, and the community's grid demand flattens compared with the same
// community denied net metering.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"nmdetect/internal/experiments"
	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/rng"
	"nmdetect/internal/scenario"
	"nmdetect/internal/solar"
	"nmdetect/internal/timeseries"
)

func main() {
	const n = 30
	ctx := context.Background()
	src := rng.New(3)

	// The world knobs come from one declarative scenario spec; its
	// GameConfig lowering is what every detector and engine shares.
	spec := scenario.Default(n, 3)
	spec.Name = "net-metering-game"
	spec.Game.Sweeps = 5

	gen := household.DefaultGenerator()
	customers, err := gen.Generate(n, src.Derive("community"))
	if err != nil {
		log.Fatal(err)
	}
	pv, err := household.CommunityPVTraces(customers, solar.DefaultModel(), 1, src.Derive("solar"))
	if err != nil {
		log.Fatal(err)
	}

	// A utility price with a pronounced evening peak.
	price := make(timeseries.Series, 24)
	for h := range price {
		switch {
		case h >= 17 && h < 21:
			price[h] = 0.16
		case h >= 6 && h < 17:
			price[h] = 0.08
		default:
			price[h] = 0.05
		}
	}

	solve := func(netMetering bool) *game.Result {
		cfg := spec.GameConfig(netMetering)
		var pvIn [][]float64
		var gsrc *rng.Source
		if netMetering {
			pvIn = pv
			gsrc = rng.New(99)
		}
		res, err := game.Solve(ctx, nil, customers, price, pvIn, cfg, gsrc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  net metering=%v: converged=%v after %d sweeps\n", netMetering, res.Converged, res.Sweeps)
		return res
	}

	fmt.Println("solving the energy consumption scheduling game:")
	plain := solve(false)
	nm := solve(true)

	nmDemand := make(timeseries.Series, 24)
	for h, v := range nm.GridDemand {
		if v > 0 {
			nmDemand[h] = v
		}
	}

	fmt.Println()
	if err := experiments.RenderChart(os.Stdout, "community grid demand (kW)",
		[]string{"without net metering", "with net metering"}, plain.GridDemand, nmDemand); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nPAR without net metering: %.4f\n", plain.GridDemand.PAR())
	fmt.Printf("PAR with net metering:    %.4f\n", nmDemand.PAR())

	// Show one battery household's solved trajectory.
	for i, c := range customers {
		if nm.BatteryTraj[i] == nil {
			continue
		}
		fmt.Printf("\ncustomer %d (PV %.1f kW, battery %.1f kWh) storage trajectory (kWh):\n",
			c.ID, c.Panel.CapacityKW, c.Battery.Capacity)
		for h := 0; h <= 24; h += 4 {
			fmt.Printf("  %02d:00 %6.2f\n", h%24, nm.BatteryTraj[i][h])
		}
		break
	}

	totalCostPlain, totalCostNM := 0.0, 0.0
	for i := range customers {
		totalCostPlain += plain.Cost[i]
		totalCostNM += nm.Cost[i]
	}
	fmt.Printf("\ntotal community cost: %.2f without NM, %.2f with NM (%.1f%% saved)\n",
		totalCostPlain, totalCostNM, 100*(totalCostPlain-totalCostNM)/totalCostPlain)
}
