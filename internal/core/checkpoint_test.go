package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"path/filepath"
	"testing"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/community"
	"nmdetect/internal/faultinject"
)

// encodeResults canonicalises a result slice for bitwise comparison. gob
// preserves exact float bit patterns (including the NaN sentinels dropped
// readings leave in the traces), which DeepEqual would reject.
func encodeResults(t *testing.T, results []*community.MonitorDayResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The headline robustness guarantee: a 60-day monitoring run killed at day
// 30 and resumed in a fresh process produces bit-for-bit the results of an
// uninterrupted run. Faults are enabled so the checkpoint also carries NaN
// readings, imputation state and the stale-broadcast chain.
func TestMonitorResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("long determinism test")
	}
	const days, killAt = 60, 30
	opts := smallOptions(8, 42)
	opts.Community.Faults = faultinject.DefaultConfig(42)
	ctx := context.Background()

	// Reference: one uninterrupted run.
	sysA, err := NewSystem(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	campA, err := sysA.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	full, err := sysA.MonitorDays(ctx, sysA.Aware, campA, days, true)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed run: checkpoint every killAt days, and a watcher that
	// cancels the context as soon as the day-killAt checkpoint lands — the
	// run dies somewhere past day killAt, but the state on disk is exactly
	// day killAt.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	killCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		for !checkpoint.Exists(path) {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	sysB, err := NewSystem(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	campB, err := sysB.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	runB, err := sysB.NewRunner(sysB.Aware, campB, true, path, killAt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runB.Run(killCtx, days); err == nil {
		// The run outraced the watcher; the day-60 checkpoint is on disk and
		// the resume below degenerates to replaying it. Very unlikely, but
		// not a failure of the contract under test.
		t.Log("killed run completed before cancellation")
	}
	var st MonitorState
	if err := checkpoint.Load(path, MonitorKind, &st); err != nil {
		t.Fatal(err)
	}
	if st.Completed%killAt != 0 || st.Completed == 0 {
		t.Fatalf("checkpoint holds %d days, want a multiple of %d", st.Completed, killAt)
	}

	// A fresh process: rebuild the system from the same options (the offline
	// phase is deterministic), then resume from disk.
	sysC, err := NewSystem(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	campC, err := sysC.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	runC, err := sysC.NewRunner(sysC.Aware, campC, true, path, killAt)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := runC.Run(ctx, days)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != days {
		t.Fatalf("resumed run holds %d days, want %d", len(resumed), days)
	}
	if !bytes.Equal(encodeResults(t, full), encodeResults(t, resumed)) {
		t.Fatal("resumed run diverged from the uninterrupted run")
	}
}

func TestMonitorCheckpointGuards(t *testing.T) {
	opts := smallOptions(8, 7)
	ctx := context.Background()
	sys, err := NewSystem(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	run, err := sys.NewRunner(sys.Aware, camp, true, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}

	resume := func(kit *community.DetectorKit, days int, enforce bool) error {
		sys2, err := NewSystem(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if kit == nil {
			kit = sys2.Aware
		} else if kit == sys.Blind {
			kit = sys2.Blind
		}
		camp2, err := sys2.NewCampaign()
		if err != nil {
			t.Fatal(err)
		}
		run2, err := sys2.NewRunner(kit, camp2, enforce, path, 1)
		if err != nil {
			return err
		}
		_, err = run2.Run(ctx, days)
		return err
	}
	if err := resume(sys.Blind, 4, true); err == nil {
		t.Error("wrong-kit resume accepted")
	}
	if err := resume(nil, 4, false); err == nil {
		t.Error("enforce-mismatch resume accepted")
	}
	if err := resume(nil, 1, true); err == nil {
		t.Error("shorter-than-checkpoint horizon accepted")
	}
	if err := resume(nil, 3, true); err != nil {
		t.Errorf("well-formed resume failed: %v", err)
	}
}
