// Tariff design: sweeps the net-metering sell-back divisor W (Section 2.3 —
// sellers are paid pₕ/W per marginal unit) and shows its effect on community
// economics and load shape. W=1 is full retail net metering; raising W is
// how utilities throttle the program. The sweep quantifies the trade-off the
// paper's Eqn 2 encodes: stingier sell-back means higher customer cost and a
// weaker midday consumption shift.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"nmdetect/internal/experiments"
	"nmdetect/internal/scenario"
)

func main() {
	// One declarative scenario describes the community; the sell-back
	// divisor W is then swept over it.
	spec := scenario.Default(40, 5)
	spec.Name = "tariff-design"
	spec.Horizon.BootstrapDays = 4
	spec.Horizon.MonitorDays = 1
	spec.Detector.Solver = "qmdp"

	ws := []float64{1, 1.25, 1.5, 2, 3, 5, 10}
	fmt.Printf("sweeping sell-back divisor W over %v on a %d-home community...\n\n", ws, spec.N)

	rows, err := experiments.AblationSellBack(context.Background(), spec, ws)
	if err != nil {
		log.Fatal(err)
	}
	experiments.RenderSellBackAblation(os.Stdout, rows)

	// Summarize the policy trade-off.
	first, last := rows[0], rows[len(rows)-1]
	fmt.Printf("\nfrom W=%.0f to W=%.0f:\n", first.W, last.W)
	fmt.Printf("  community cost:   %+.1f%%\n", 100*(last.TotalCost-first.TotalCost)/first.TotalCost)
	fmt.Printf("  grid energy:      %+.1f%%\n", 100*(last.GridEnergyNet-first.GridEnergyNet)/first.GridEnergyNet)
	fmt.Printf("  consumption PAR:  %+.2f%%\n", 100*(last.LoadPAR-first.LoadPAR)/first.LoadPAR)
	fmt.Println("\nfull retail net metering (W=1) maximizes the incentive to shift")
	fmt.Println("consumption into solar hours; the paper's experiments use W=1.5.")
}
