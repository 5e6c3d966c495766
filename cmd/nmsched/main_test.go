package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmdetect/internal/cli/clitest"
	"nmdetect/internal/exitcode"
)

const houseSpec = `{"base_load": [0.4,0.4,0.4,0.4,0.4,0.4,0.5,0.6,0.5,0.4,0.4,0.4,0.4,0.4,0.4,0.5,0.6,0.8,0.9,0.9,0.8,0.6,0.5,0.4],
 "appliances": [{"name": "ev", "levels": [1.5, 3.0], "energy_kwh": 9, "earliest": 17, "deadline": 23}],
 "pv_kw": 3.5, "battery_kwh": 6}`

func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagSurface pins nmsched's flags: names, types and defaults.
func TestFlagSurface(t *testing.T) {
	want := `cpuprofile string
events string
memprofile string
pprof string
price string
pv-scale float 1
seed uint 1
spec string`
	if got := strings.Join(clitest.Flags(t, "nmsched", run), "\n"); got != want {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got, want)
	}
}

func TestSchedule(t *testing.T) {
	spec := writeFile(t, "house.json", houseSpec)
	res := clitest.Run(t, context.Background(), "nmsched", run, "-spec", spec)
	if res.Code != 0 {
		t.Fatalf("exit %d: %v", res.Code, res.Err)
	}
	lines := strings.Split(strings.TrimSpace(res.Stdout), "\n")
	if lines[0] != "slot,price,pv_kw,consumption_kw,net_flow_kw,battery_kwh" || len(lines) != 25 {
		t.Fatalf("schedule: header %q, %d lines", lines[0], len(lines))
	}
	if !strings.Contains(res.Stderr, "nmsched: daily cost") {
		t.Fatalf("no cost summary on stderr:\n%s", res.Stderr)
	}

	var price strings.Builder
	price.WriteString("slot,price\n")
	for h := 0; h < 24; h++ {
		fmt.Fprintf(&price, "%d,0.1\n", h)
	}
	flat := clitest.Run(t, context.Background(), "nmsched", run, "-spec", spec, "-price", writeFile(t, "price.csv", price.String()))
	if flat.Code != 0 || !strings.Contains(flat.Stdout, "\n0,0.10000,") {
		t.Fatalf("-price run: exit %d: %v", flat.Code, flat.Err)
	}
}

func TestExitCodes(t *testing.T) {
	spec := writeFile(t, "house.json", houseSpec)
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, exitcode.OK},
		{[]string{"-bogus"}, exitcode.Validation},
		{nil, exitcode.Validation},
		{[]string{"-spec", writeFile(t, "bad.json", `{"appliances": [{"levels": []}]}`)}, exitcode.Validation},
		{[]string{"-spec", spec, "-price", writeFile(t, "short.csv", "0,0.1\n1,0.2\n")}, exitcode.Validation},
		{[]string{"-spec", filepath.Join(t.TempDir(), "missing.json")}, exitcode.Runtime},
	} {
		if res := clitest.Run(t, context.Background(), "nmsched", run, tc.args...); res.Code != tc.code {
			t.Errorf("%v: exit %d, want %d (%v)", tc.args, res.Code, tc.code, res.Err)
		}
	}
}
