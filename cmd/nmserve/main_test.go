package main

import (
	"strings"
	"testing"

	"nmdetect/internal/cli/clitest"
	"nmdetect/internal/exitcode"
)

// TestFlagSurface pins nmserve's flags: names, types and defaults (the
// benchmark harness and the e2e tests drive the daemon through them).
func TestFlagSurface(t *testing.T) {
	want := `addr string "localhost:8080"
addr-file string
checkpoint-every int 1
cpuprofile string
drain duration 10s
events string
memprofile string
pprof string
state string
step-deadline duration`
	if got := strings.Join(clitest.Flags(t, "nmserve", run), "\n"); got != want {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got, want)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-bogus"}, exitcode.Validation},
		{nil, exitcode.Validation},
		{[]string{"-state", t.TempDir(), "-addr", "no-port"}, exitcode.Validation},
	} {
		if res := clitest.Run(t, clitest.Cancelled(), "nmserve", run, tc.args...); res.Code != tc.code {
			t.Errorf("%v: exit %d, want %d (%v)", tc.args, res.Code, tc.code, res.Err)
		}
	}
}
