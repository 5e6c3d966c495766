package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmdetect/internal/cli/clitest"
	"nmdetect/internal/exitcode"
)

// tiny is a world small enough to build and monitor in milliseconds.
var tiny = []string{"-n", "6", "-boot", "4", "-days", "2", "-sweeps", "1", "-solver", "qmdp", "-workers", "1"}

func runDetect(t *testing.T, ctx context.Context, args ...string) clitest.Result {
	t.Helper()
	return clitest.Run(t, ctx, "nmdetect", run, args...)
}

// TestFlagSurface pins nmdetect's flags: names, types and defaults. The
// -fleet-worker flags are also the NMW1 worker argv cmd/nmfleet builds.
func TestFlagSurface(t *testing.T) {
	want := `active-tol float
attack string
batch int
batch-report string
batch-size int
boot int 6
checkpoint string
checkpoint-every int 10
communities int 1
cpuprofile string
days int 2
detector string "aware"
dump-scenario bool
events string
fleet-checkpoint string
fleet-report string
fleet-worker bool
fleet-workers int
heartbeat duration 5s
jacobi int
memprofile string
n int 500
noenforce bool
pprof string
resume bool
scenario string
seed uint 42
shards int
solver string "pbvi"
strike-slots string
sweeps int 3
workers int`
	if got := strings.Join(clitest.Flags(t, "nmdetect", run), "\n"); got != want {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestDumpScenarioPinned pins the -dump-scenario output (stdout digest and
// content ID) of a table of flag lines, recorded before the world-flag
// lowering moved into scenario.Flags.
func TestDumpScenarioPinned(t *testing.T) {
	for _, tc := range []struct{ args, digest, id string }{
		{"", "28fdae9ec917a539", "sc-1bbdd480b4b3125e"},
		{"-n 20 -seed 7 -boot 4 -days 3 -sweeps 2 -solver qmdp", "30a81ce2017aa20c", "sc-8257aa33b0844836"},
		{"-attack scale:16-19:0.5 -strike-slots 2,8,14,20", "dfb6b2924bade6f8", "sc-2c1850451281d071"},
		{"-attack adaptive:16-19:0.9", "c4b1ba0f7fb3496e", "sc-15d7ec661fa42556"},
		{"-workers 1 -jacobi 2 -active-tol 0.05 -shards 3", "b8a9649150795fa9", "sc-fb75d0208679d8d3"},
		{"-communities 4", "39b13536523149eb", "sc-b46a18d8e9478f16"},
		{"-scenario table1", "cdaedea59f1dce33", "sc-1af9824ccaa49f19"},
		{"-scenario fig6 -n 9 -solver threshold", "ed2759567a81c418", "sc-b915c2b1f0770f21"},
	} {
		res := runDetect(t, context.Background(), append(strings.Fields(tc.args), "-dump-scenario")...)
		if res.Code != 0 {
			t.Fatalf("%q: exit %d: %v", tc.args, res.Code, res.Err)
		}
		sum := sha256.Sum256([]byte(res.Stdout))
		if got := hex.EncodeToString(sum[:8]); got != tc.digest {
			t.Errorf("%q: stdout digest %s, want %s", tc.args, got, tc.digest)
		}
		if got := strings.TrimSpace(res.Stderr); got != tc.id {
			t.Errorf("%q: content ID %s, want %s", tc.args, got, tc.id)
		}
	}
}

func TestMonitoringLog(t *testing.T) {
	res := runDetect(t, context.Background(), tiny...)
	if res.Code != 0 {
		t.Fatalf("exit %d: %v\n%s", res.Code, res.Err, res.Stderr)
	}
	lines := strings.Split(strings.TrimSpace(res.Stdout), "\n")
	if lines[0] != "slot,flagged,obs_bucket,true_bucket,true_hacked,action" || len(lines) != 1+2*24 {
		t.Fatalf("log: header %q, %d lines", lines[0], len(lines))
	}
	if !strings.Contains(res.Stderr, "observation accuracy") {
		t.Fatalf("no accuracy summary on stderr:\n%s", res.Stderr)
	}
	blind := runDetect(t, context.Background(), append(tiny, "-detector", "blind")...)
	if blind.Code != 0 || !strings.Contains(blind.Stderr, "blind") {
		t.Fatalf("blind run: exit %d: %v", blind.Code, blind.Err)
	}
}

func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	full := runDetect(t, context.Background(), tiny...)
	first := runDetect(t, context.Background(), append(tiny, "-checkpoint", ckpt, "-checkpoint-every", "1")...)
	if first.Code != 0 || first.Stdout != full.Stdout {
		t.Fatalf("checkpointed run differs (exit %d: %v)", first.Code, first.Err)
	}
	if res := runDetect(t, context.Background(), append(tiny, "-checkpoint", ckpt)...); res.Code != exitcode.Validation {
		t.Fatalf("existing checkpoint without -resume: exit %d, want 2", res.Code)
	}
	resumed := runDetect(t, context.Background(), append(tiny, "-checkpoint", ckpt, "-resume")...)
	if resumed.Code != 0 || resumed.Stdout != full.Stdout {
		t.Fatalf("resumed run differs (exit %d: %v)", resumed.Code, resumed.Err)
	}
}

func TestFleetReport(t *testing.T) {
	rep := filepath.Join(t.TempDir(), "fleet.json")
	res := runDetect(t, context.Background(), append(tiny, "-communities", "2", "-fleet-report", rep)...)
	if res.Code != 0 {
		t.Fatalf("exit %d: %v", res.Code, res.Err)
	}
	if fi, err := os.Stat(rep); err != nil || fi.Size() == 0 {
		t.Fatalf("-fleet-report not written: %v", err)
	}
}

// TestDetectorValidatedBeforeBuild runs under an already-cancelled context:
// had the system build started, the run would fail with context.Canceled
// (exit 3) instead of the flag error.
func TestDetectorValidatedBeforeBuild(t *testing.T) {
	for _, extra := range [][]string{nil, {"-communities", "2"}} {
		args := append(append(append([]string{}, tiny...), extra...), "-detector", "bogus")
		res := runDetect(t, clitest.Cancelled(), args...)
		if res.Code != exitcode.Validation || !strings.Contains(res.Stderr, `unknown detector "bogus"`) {
			t.Fatalf("%v: exit %d, err %v", extra, res.Code, res.Err)
		}
		if strings.Contains(res.Stderr, "building") {
			t.Fatalf("%v: a build started before the detector check:\n%s", extra, res.Stderr)
		}
	}
}

// TestExitCodes runs the flag errors under an already-cancelled context, so
// each must be caught before any work starts.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, exitcode.OK},
		{[]string{"-bogus"}, exitcode.Validation},
		{[]string{"-solver", "magic"}, exitcode.Validation},
		{[]string{"-strike-slots", "2,x"}, exitcode.Validation},
		{append(tiny, "-fleet-report", "r.json"), exitcode.Validation},
		{append(tiny, "-resume"), exitcode.Validation},
		{append(tiny, "-fleet-worker"), exitcode.Validation},
	} {
		if res := runDetect(t, clitest.Cancelled(), tc.args...); res.Code != tc.code {
			t.Errorf("%v: exit %d, want %d (%v)", tc.args, res.Code, tc.code, res.Err)
		}
	}
	res := runDetect(t, clitest.Cancelled(), tiny...)
	if res.Code != exitcode.Runtime || !strings.Contains(res.Stderr, "context canceled") {
		t.Fatalf("cancelled run: exit %d, stderr %q", res.Code, res.Stderr)
	}
}
