package main

import (
	"context"
	"strings"
	"testing"

	"nmdetect/internal/cli/clitest"
	"nmdetect/internal/exitcode"
)

// TestFlagSurface pins nmattack's flags: names, types and defaults.
func TestFlagSurface(t *testing.T) {
	want := `attack string "zero"
batchhi int 20
batchlo int 5
cpuprofile string
events string
factor float 0.5
from int 16
hours int 48
memprofile string
n int 500
pprof string
prob float 0.25
seed uint 1
to int 17`
	if got := strings.Join(clitest.Flags(t, "nmattack", run), "\n"); got != want {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got, want)
	}
}

func TestPricesAndCampaign(t *testing.T) {
	res := clitest.Run(t, context.Background(), "nmattack", run, "-n", "40", "-hours", "6")
	if res.Code != 0 {
		t.Fatalf("exit %d: %v", res.Code, res.Err)
	}
	if !strings.HasPrefix(res.Stdout, "# manipulation: ") {
		t.Fatalf("stdout starts %q", res.Stdout[:min(len(res.Stdout), 40)])
	}
	_, campaign, ok := strings.Cut(res.Stdout, "hour,newly_hacked,total_hacked\n")
	if !ok || strings.Count(campaign, "\n") != 6 {
		t.Fatalf("want a 6-slot campaign trace:\n%s", res.Stdout)
	}
	// Zeroing the 16-17 window: the manipulated price of slot 16 is 0.
	if !strings.Contains(res.Stdout, "\n16,") || !strings.Contains(res.Stdout, ",0.000000\n17,") {
		t.Fatalf("slot 16 not zeroed:\n%s", res.Stdout)
	}
	compact := clitest.Run(t, context.Background(), "nmattack", run, "-attack", "ramp:12-20:0.3", "-hours", "1")
	if compact.Code != 0 {
		t.Fatalf("compact attack: exit %d: %v", compact.Code, compact.Err)
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, exitcode.OK},
		{[]string{"-bogus"}, exitcode.Validation},
		{[]string{"-attack", "bogus"}, exitcode.Validation},
		{[]string{"-attack", "delay:x"}, exitcode.Validation},
		{[]string{"-batchlo", "30", "-batchhi", "2"}, exitcode.Validation},
	} {
		if res := clitest.Run(t, context.Background(), "nmattack", run, tc.args...); res.Code != tc.code {
			t.Errorf("%v: exit %d, want %d (%v)", tc.args, res.Code, tc.code, res.Err)
		}
	}
	// A signal stops the campaign loop at the next slot.
	res := clitest.Run(t, clitest.Cancelled(), "nmattack", run, "-hours", "5")
	if res.Code != exitcode.Runtime || !strings.Contains(res.Stderr, "interrupted after 0 campaign slots") {
		t.Fatalf("cancelled run: exit %d, stderr %q", res.Code, res.Stderr)
	}
}
