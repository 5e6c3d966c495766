package community

import (
	"context"
	"math"
	"testing"

	"nmdetect/internal/game"
	"nmdetect/internal/rng"
)

// TestEngineWorkspaceReuseMatchesFreshSolve pins the engine's reused game
// workspaces to the reference: after several days of reuse, SimulateDay's
// clean solve must still agree bitwise with a from-scratch game.Solve on the
// same inputs. This is the cross-day version of the game package's
// workspace-identity test — it would catch any state leaking across days
// through e.solveWS.
func TestEngineWorkspaceReuseMatchesFreshSolve(t *testing.T) {
	e := testEngine(t, 12, 42)
	ctx := context.Background()

	for day := 0; day < 3; day++ {
		env, err := e.PrepareDay(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := e.SimulateDay(ctx, env, nil, true, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Reference solve with a brand-new workspace and the engine's exact
		// inputs (same controller seed, config, price, PV).
		ref, err := game.Solve(ctx, nil, e.Customers(), env.Published, env.PV, e.GameConfig(true), rng.New(e.ControllerSeed()))
		if err != nil {
			t.Fatal(err)
		}
		for n := range trace.CleanMeter {
			for h := range trace.CleanMeter[n] {
				if math.Float64bits(trace.CleanMeter[n][h]) != math.Float64bits(ref.CustomerTrading[n][h]) {
					t.Fatalf("day %d meter %d slot %d: engine (reused ws) %v != fresh solve %v",
						day, n, h, trace.CleanMeter[n][h], ref.CustomerTrading[n][h])
				}
			}
		}
	}
}

func TestConfigValidateActiveTol(t *testing.T) {
	bad := DefaultConfig(10, 1)
	bad.GameActiveTol = -0.5
	if err := bad.Validate(); err == nil {
		t.Error("negative active-set tolerance accepted")
	}
	bad.GameActiveTol = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN active-set tolerance accepted")
	}
	ok := DefaultConfig(10, 1)
	ok.GameActiveTol = 0.05
	if err := ok.Validate(); err != nil {
		t.Errorf("valid active-set tolerance rejected: %v", err)
	}
	// The knob must flow through to the solver config.
	e, err := NewEngine(ok)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.GameConfig(true).ActiveTol; got != 0.05 {
		t.Fatalf("GameConfig.ActiveTol = %v, want 0.05", got)
	}
}
