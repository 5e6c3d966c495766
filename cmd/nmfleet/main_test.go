package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmdetect/internal/cli/clitest"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/scenario"
)

// TestFlagSurface pins nmfleet's flags: names, types and defaults.
func TestFlagSurface(t *testing.T) {
	want := `backoff duration 500ms
batch-size int 1
boot int 6
checkpoint-every int 10
communities int 2
days int 2
deadline duration
detector string "aware"
events string
fleet-workers int 1
heartbeat duration 5s
heartbeat-gap duration 30s
kill-grace duration 2s
max-backoff duration 1m0s
max-failed int
n int 500
noenforce bool
procs int
report string
retries int 2
scenario string
seed uint 42
solver string "pbvi"
sweeps int 3
workdir string
worker-bin string "nmdetect"`
	if got := strings.Join(clitest.Flags(t, "nmfleet", run), "\n"); got != want {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestWorkdirScenarioPinned pins the canonical scenario.json nmfleet writes
// into its workdir (file digest and content ID) for a table of flag lines,
// recorded before the world-flag lowering moved into scenario.Flags. A
// missing worker binary stops each run right after the file is written.
func TestWorkdirScenarioPinned(t *testing.T) {
	for _, tc := range []struct{ args, digest, id string }{
		{"", "2241d29fcd935f7c", "sc-7ca1ff73a25fded9"},
		{"-n 8 -communities 3 -days 2 -boot 4 -sweeps 2 -solver qmdp -seed 9", "252e36f9312dbf89", "sc-1bcd4f2b875218e8"},
		{"-communities 5 -n 30", "c781b0fb3f1e3bc7", "sc-4194b3a26095d645"},
		{"-scenario fig3 -communities 3", "84ab5e6d869b5a80", "sc-ad77147beb56524c"},
		{"-scenario ../../scenarios/attack-zero-peak.json", "ff12fb4e8c3664ae", "sc-f5fd9843ea3bb068"},
	} {
		wd := t.TempDir()
		args := append(strings.Fields(tc.args), "-workdir", wd, "-worker-bin", filepath.Join(wd, "no-such-worker"))
		res := clitest.Run(t, clitest.Cancelled(), "nmfleet", run, args...)
		if res.Code != exitcode.Validation || !strings.Contains(res.Stderr, "no-such-worker") {
			t.Fatalf("%q: exit %d, want the missing-worker refusal: %v", tc.args, res.Code, res.Err)
		}
		path := filepath.Join(wd, "scenario.json")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:8]); got != tc.digest {
			t.Errorf("%q: scenario.json digest %s, want %s", tc.args, got, tc.digest)
		}
		spec, err := scenario.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.ID(); got != tc.id {
			t.Errorf("%q: content ID %s, want %s", tc.args, got, tc.id)
		}
	}
}

// TestFlagErrors runs under an already-cancelled context: every refusal
// must come before the supervisor starts.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, exitcode.OK},
		{[]string{"-bogus"}, exitcode.Validation},
		{nil, exitcode.Validation},
		{[]string{"-workdir", t.TempDir(), "-detector", "bogus"}, exitcode.Validation},
		{[]string{"-workdir", t.TempDir(), "-n", "2"}, exitcode.Validation},
	} {
		if res := clitest.Run(t, clitest.Cancelled(), "nmfleet", run, tc.args...); res.Code != tc.code {
			t.Errorf("%v: exit %d, want %d (%v)", tc.args, res.Code, tc.code, res.Err)
		}
	}
}
