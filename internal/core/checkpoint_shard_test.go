package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/faultinject"
)

// TestMonitorResumeShardedMatchesUninterrupted extends the crash-equivalence
// suite to the hierarchical solver: a sharded monitoring run killed mid-way
// and resumed in a fresh process must be gob-byte identical to the
// uninterrupted sharded run. The engine's checkpoint state is shard-agnostic
// — the partition is a pure function of the Config — so this pins that no
// hidden cross-day state (shard workspaces, outer-sweep aggregates) leaks
// into the resumable contract. Faults stay on so the snapshot carries NaN
// readings and the stale-broadcast chain, like the flat test.
func TestMonitorResumeShardedMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("long determinism test")
	}
	const days, killAt = 12, 6
	opts := smallOptions(9, 42)
	opts.Community.Shards = 3
	opts.Community.Faults = faultinject.DefaultConfig(42)
	ctx := context.Background()

	// Reference: one uninterrupted sharded run.
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

	// The doomed run: cancelled as soon as the first checkpoint lands.
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
		t.Log("killed run completed before cancellation")
	}
	var st MonitorState
	if err := checkpoint.Load(path, MonitorKind, &st); err != nil {
		t.Fatal(err)
	}
	if st.Completed%killAt != 0 || st.Completed == 0 {
		t.Fatalf("checkpoint holds %d days, want a multiple of %d", st.Completed, killAt)
	}

	// Fresh process: rebuild from the same options, resume from disk.
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
		t.Fatal("resumed sharded run diverged from the uninterrupted sharded run")
	}
}
