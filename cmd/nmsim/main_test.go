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

// tiny is a world small enough to simulate in milliseconds.
var tiny = []string{"-n", "6", "-days", "2", "-sweeps", "1", "-workers", "1"}

func runSim(t *testing.T, ctx context.Context, args ...string) clitest.Result {
	t.Helper()
	return clitest.Run(t, ctx, "nmsim", run, args...)
}

// TestFlagSurface pins nmsim's flags: names, types and defaults.
func TestFlagSurface(t *testing.T) {
	want := `active-tol float
attack string "none"
checkpoint string
checkpoint-every int 10
communities int 1
cpuprofile string
days int 7
dump-scenario bool
events string
factor float 0.5
fleet-workers int
from int 16
history string
jacobi int
memprofile string
n int 500
nonm bool
o string
pprof string
resume bool
scenario string
seed uint 42
shards int
sweeps int 3
to int 17
workers int`
	if got := strings.Join(clitest.Flags(t, "nmsim", run), "\n"); got != want {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestDumpScenarioPinned pins the -dump-scenario output (stdout digest and
// content ID) of a table of flag lines, recorded before the world-flag
// lowering moved into scenario.Flags.
func TestDumpScenarioPinned(t *testing.T) {
	for _, tc := range []struct{ args, digest, id string }{
		{"", "4ed9cdef99c1e636", "sc-e47dac45ec458b4d"},
		{"-n 12 -seed 7 -days 3 -sweeps 2", "63e7b39a3da28c27", "sc-b87a49d5f8b3e27d"},
		{"-attack none", "4ed9cdef99c1e636", "sc-e47dac45ec458b4d"},
		{"-attack scale -from 10 -to 12 -factor 0.3", "c08a7fb47f36f2d6", "sc-a67c54a075c276d8"},
		{"-attack delay:3", "0722305bcb7717f9", "sc-b9f328fc45378374"},
		{"-attack false-reading:10-15:0.8", "7cac6342d50bcc32", "sc-32521d645bf01914"},
		{"-workers 2 -jacobi 4 -active-tol 0.01 -shards 3", "a703f607d5dea3ff", "sc-d0089e364d1f3283"},
		{"-communities 3", "64e5b8f9eba78c21", "sc-bd9d17d66774962f"},
		{"-scenario fig3", "84ab5e6d869b5a80", "sc-ad77147beb56524c"},
		{"-scenario fig3 -n 9 -attack invert", "84ab5e6d869b5a80", "sc-ad77147beb56524c"},
	} {
		res := runSim(t, context.Background(), append(strings.Fields(tc.args), "-dump-scenario")...)
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

func TestTraceToStdoutAndFiles(t *testing.T) {
	res := runSim(t, context.Background(), append(tiny, "-attack", "scale")...)
	if res.Code != 0 {
		t.Fatalf("exit %d: %v", res.Code, res.Err)
	}
	lines := strings.Split(strings.TrimSpace(res.Stdout), "\n")
	if lines[0] != "day,slot,price,renewable,load,grid_demand,hacked" || len(lines) != 1+2*24 {
		t.Fatalf("trace: header %q, %d lines", lines[0], len(lines))
	}

	dir := t.TempDir()
	out, hist := filepath.Join(dir, "trace.csv"), filepath.Join(dir, "hist.csv")
	res2 := runSim(t, context.Background(), append(tiny, "-attack", "scale", "-o", out, "-history", hist)...)
	if res2.Code != 0 || res2.Stdout != "" {
		t.Fatalf("-o run: exit %d, stdout %q: %v", res2.Code, res2.Stdout, res2.Err)
	}
	if b, err := os.ReadFile(out); err != nil || string(b) != res.Stdout {
		t.Fatalf("-o file differs from the stdout trace (%v)", err)
	}
	if fi, err := os.Stat(hist); err != nil || fi.Size() == 0 {
		t.Fatalf("-history not written: %v", err)
	}
}

func TestFleetTraces(t *testing.T) {
	res := runSim(t, context.Background(), append(tiny, "-communities", "2")...)
	if res.Code != 0 {
		t.Fatalf("exit %d: %v", res.Code, res.Err)
	}
	if strings.Count(res.Stdout, "# community ") != 2 {
		t.Fatalf("want two community sections:\n%s", res.Stdout)
	}
	out := filepath.Join(t.TempDir(), "trace.csv")
	if res := runSim(t, context.Background(), append(tiny, "-communities", "2", "-o", out)...); res.Code != 0 {
		t.Fatalf("fleet -o: exit %d: %v", res.Code, res.Err)
	}
	for _, p := range []string{communityOut(out, 0), communityOut(out, 1)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sim.ckpt")
	full := runSim(t, context.Background(), tiny...)
	first := runSim(t, context.Background(), append(tiny, "-checkpoint", ckpt, "-checkpoint-every", "1")...)
	if first.Code != 0 || first.Stdout != full.Stdout {
		t.Fatalf("checkpointed run differs (exit %d: %v)", first.Code, first.Err)
	}
	if res := runSim(t, context.Background(), append(tiny, "-checkpoint", ckpt)...); res.Code != exitcode.Validation {
		t.Fatalf("existing checkpoint without -resume: exit %d, want 2", res.Code)
	}
	resumed := runSim(t, context.Background(), append(tiny, "-checkpoint", ckpt, "-resume")...)
	if resumed.Code != 0 || resumed.Stdout != full.Stdout {
		t.Fatalf("resumed run differs (exit %d: %v)", resumed.Code, resumed.Err)
	}
	if res := runSim(t, context.Background(), append(tiny, "-checkpoint", ckpt, "-resume", "-nonm")...); res.Code != exitcode.ResumeIncompatible {
		t.Fatalf("resume with a different world: exit %d, want 4", res.Code)
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, exitcode.OK},
		{[]string{"-bogus"}, exitcode.Validation},
		{[]string{"-n", "2"}, exitcode.Validation},
		{[]string{"-attack", "zero:bad"}, exitcode.Validation},
		{[]string{"-scenario", "no-such-preset"}, exitcode.Validation},
		{append(tiny, "-resume"), exitcode.Validation},
		{append(tiny, "-communities", "2", "-attack", "zero"), exitcode.Validation},
		{append(tiny, "-o", filepath.Join(t.TempDir(), "missing", "t.csv")), exitcode.Runtime},
	} {
		if res := runSim(t, context.Background(), tc.args...); res.Code != tc.code {
			t.Errorf("%v: exit %d, want %d (%v)", tc.args, res.Code, tc.code, res.Err)
		}
	}
	res := runSim(t, clitest.Cancelled(), tiny...)
	if res.Code != exitcode.Runtime || !strings.Contains(res.Stderr, "nmsim: context canceled") {
		t.Fatalf("cancelled run: exit %d, stderr %q", res.Code, res.Stderr)
	}
}
