package game

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nmdetect/internal/parallel"
	"nmdetect/internal/rng"
)

// countingCtx cancels itself after limit Err polls. Done returns nil on
// purpose: the cancellation contract forbids blocking on Done, so a solver
// that did would hang this test instead of passing silently.
type countingCtx struct {
	polls atomic.Int64
	limit int64
}

func (c *countingCtx) Deadline() (time.Time, bool)       { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}             { return nil }
func (c *countingCtx) Value(key interface{}) interface{} { return nil }
func (c *countingCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func TestSolvePreCancelled(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	cfg.MaxSweeps = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, nil, customers, flatPrice(0.1), nil, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out := parallel.Outstanding(); out != 0 {
		t.Fatalf("%d helper tokens leaked", out)
	}
}

func TestSolveCancelledMidSweepAbortsPromptly(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	cfg.MaxSweeps = 5

	// Count how many Err polls one full solve performs, then allow a solve
	// only a fraction of that budget: the solve must abort inside the first
	// sweep, well before the budget a completed run needs.
	probe := &countingCtx{limit: 1 << 60}
	if _, err := Solve(probe, nil, customers, variedPrice(), pv, cfg, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	full := probe.polls.Load()
	if full < 10 {
		t.Fatalf("solver polled ctx only %d times over %d sweeps; cancellation would be too coarse", full, cfg.MaxSweeps)
	}

	ctx := &countingCtx{limit: full / int64(cfg.MaxSweeps) / 2}
	_, err := Solve(ctx, nil, customers, variedPrice(), pv, cfg, rng.New(7))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ctx.polls.Load(); got > full/int64(cfg.MaxSweeps)*2 {
		t.Fatalf("cancelled solve kept polling: %d polls, one sweep is ~%d", got, full/int64(cfg.MaxSweeps))
	}
	if out := parallel.Outstanding(); out != 0 {
		t.Fatalf("%d helper tokens leaked after cancelled solve", out)
	}
}

func TestSolveCancelledParallelNoLeak(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	cfg.Workers = 4
	cfg.JacobiBlock = 8
	ctx := &countingCtx{limit: 20}
	if _, err := Solve(ctx, nil, customers, variedPrice(), pv, cfg, rng.New(7)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out := parallel.Outstanding(); out != 0 {
		t.Fatalf("%d helper tokens leaked from parallel cancelled solve", out)
	}
}

func TestNilContextNeverCancels(t *testing.T) {
	customers := smallCommunity(t)
	cfg := DefaultConfig(testTariff(t), false)
	cfg.MaxSweeps = 1
	if _, err := Solve(nil, nil, customers, flatPrice(0.1), nil, cfg, nil); err != nil {
		t.Fatalf("nil ctx solve failed: %v", err)
	}
}
