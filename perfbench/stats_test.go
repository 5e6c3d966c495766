package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailCountsSamplesBeyond(t *testing.T) {
	tl := tail(seq(100), 0.9)
	if math.Abs(tl.Value-90.1) > 1e-9 || tl.N != 100 || tl.Beyond != 10 || !tl.OK() {
		t.Fatalf("p90 of 1..100 = %+v, want 90.1 with 10 of 100 beyond, accepted", tl)
	}
	// 91 samples put p90 exactly on the 82nd and leave 9 beyond it:
	// refused as a tail estimate.
	tl = tail(seq(91), 0.9)
	if tl.Value != 82 || tl.Beyond != 9 || tl.OK() {
		t.Fatalf("p90 of 1..91 = %+v, want 82 with 9 beyond, refused", tl)
	}
	if !strings.Contains(tl.String(), "indicative only") || !strings.Contains(tl.String(), "n=91") {
		t.Errorf("refused tail should say so with its sample count: %q", tl)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN, which report refuses")
	}
}

func TestHighestTail(t *testing.T) {
	tl, ok := highestTail(seq(100))
	if !ok || tl.P != 0.9 || tl.Beyond != 10 {
		t.Fatalf("highest tail of 100 samples = %+v (ok %v), want p90 with 10 beyond", tl, ok)
	}
	tl, ok = highestTail(seq(1000))
	if !ok || tl.P != 0.99 {
		t.Fatalf("highest tail of 1000 samples = %+v, want p99", tl)
	}
	if _, ok := highestTail(seq(19)); ok {
		t.Fatal("19 samples leave 9 beyond the median; no tail should be accepted")
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Fatal("empty tally should report no failures")
	}
	for i := 0; i < 8; i++ {
		var err error
		if i%4 == 3 {
			err = errors.New("boom")
		}
		tl.add(err)
	}
	if tl.attempted != 8 || tl.failed != 2 || tl.failedFrac() != 0.25 {
		t.Fatalf("tally = %+v, want 2 of 8 failed", tl)
	}
	var other tally
	for i := 0; i < 10; i++ {
		other.add(errors.New("again"))
	}
	tl.merge(other)
	if tl.attempted != 18 || tl.failed != 12 || len(tl.errs) != keptErrors {
		t.Fatalf("merged tally = %d/%d with %d kept errors, want 12/18 with %d",
			tl.failed, tl.attempted, len(tl.errs), keptErrors)
	}
}

func TestOutcomeChecksAndSteps(t *testing.T) {
	o := newOutcome()
	o.check(true, "fine")
	o.check(false, "accuracy %v", 2.0)
	if stop := o.steps(3, nil); stop {
		t.Fatal("steps without an error should not stop the run")
	}
	if stop := o.steps(1, errors.New("day failed")); !stop {
		t.Fatal("steps with an error should stop the run")
	}
	if o.ops.attempted != 7 || o.ops.failed != 2 {
		t.Fatalf("ops = %d/%d, want 2 failed of 7", o.ops.failed, o.ops.attempted)
	}
	if !strings.Contains(o.ops.errs[0], "check failed: accuracy 2") {
		t.Errorf("failed check message = %q", o.ops.errs[0])
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tnmserve\nVmPeak:\t  900000 kB\nVmHWM:\t   30720 kB\nVmRSS:\t   20000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 30 {
		t.Fatalf("parseVmHWM = %v, %v; want 30 MiB", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Fatal("a status without VmHWM should be an error")
	}
}
