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

// tiny is a world small enough to run an experiment in milliseconds.
var tiny = []string{"-n", "6", "-boot", "4", "-days", "2", "-sweeps", "1", "-solver", "qmdp", "-workers", "1"}

func runRepro(t *testing.T, ctx context.Context, args ...string) clitest.Result {
	t.Helper()
	return clitest.Run(t, ctx, "nmrepro", run, args...)
}

// TestFlagSurface pins nmrepro's flags: names, types and defaults.
func TestFlagSurface(t *testing.T) {
	want := `active-tol float
attack string
boot int 6
checkpoint string
communities int 1
cpuprofile string
csv string
days int 2
dump-scenario bool
events string
experiment string "all"
fleet-workers int
jacobi int
json string
memprofile string
n int 500
pprof string
report string
resume bool
scenario string
seed uint 42
shards int
solver string "pbvi"
strike-slots string
sweeps int 3
workers int`
	if got := strings.Join(clitest.Flags(t, "nmrepro", run), "\n"); got != want {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestDumpScenarioPinned pins the -dump-scenario output (stdout digest and
// content ID) of a table of flag lines, recorded before the world-flag
// lowering moved into scenario.Flags.
func TestDumpScenarioPinned(t *testing.T) {
	for _, tc := range []struct{ args, digest, id string }{
		{"", "28fdae9ec917a539", "sc-1bbdd480b4b3125e"},
		{"-n 10 -seed 3 -boot 5 -days 1 -sweeps 1 -solver threshold", "5880b8d157b14270", "sc-26801fd598ec0578"},
		{"-attack delay:-2 -strike-slots 3,9", "91ee18257a86370b", "sc-66f7c5fd681a1d55"},
		{"-workers 3 -jacobi 8 -active-tol 0.02 -shards 2", "379b89b781682b13", "sc-35b3cc16c95a6cb2"},
		{"-communities 2", "2241d29fcd935f7c", "sc-7ca1ff73a25fded9"},
		{"-scenario fig5", "8701f79ddb666736", "sc-592652a5f9cab32d"},
	} {
		res := runRepro(t, context.Background(), append(strings.Fields(tc.args), "-dump-scenario")...)
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

func TestAllWithReports(t *testing.T) {
	dir := t.TempDir()
	report, jsonOut, csvDir := filepath.Join(dir, "r.md"), filepath.Join(dir, "r.json"), filepath.Join(dir, "csv")
	res := runRepro(t, context.Background(), append(tiny, "-report", report, "-json", jsonOut, "-csv", csvDir)...)
	if res.Code != 0 {
		t.Fatalf("exit %d: %v", res.Code, res.Err)
	}
	for _, want := range []string{"Figure 3", "Figure 4", "Figure 5", "Figure 6", "Table 1", "Headline"} {
		if !strings.Contains(res.Stdout, want) {
			t.Errorf("stdout lacks %q", want)
		}
	}
	for _, p := range []string{report, jsonOut, filepath.Join(csvDir, "fig3.csv"), filepath.Join(csvDir, "fig6.csv")} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", p, err)
		}
	}
}

func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "repro.ckpt")
	args := append(tiny, "-experiment", "table1", "-checkpoint", ckpt)
	first := runRepro(t, context.Background(), args...)
	if first.Code != 0 {
		t.Fatalf("exit %d: %v", first.Code, first.Err)
	}
	// A resumed run re-renders from the snapshot without recomputing, so it
	// completes even under a cancelled context.
	resumed := runRepro(t, clitest.Cancelled(), append(args, "-resume")...)
	if resumed.Code != 0 || resumed.Stdout != first.Stdout {
		t.Fatalf("resumed run differs (exit %d: %v)", resumed.Code, resumed.Err)
	}
	if res := runRepro(t, context.Background(), append(args, "-resume", "-seed", "9")...); res.Code != exitcode.ResumeIncompatible {
		t.Fatalf("resume under another scenario: exit %d, want 4", res.Code)
	}
}

func TestSweepsAndFleet(t *testing.T) {
	if res := runRepro(t, context.Background(), append(tiny, "-experiment", "fleet", "-communities", "2")...); res.Code != 0 ||
		!strings.Contains(res.Stdout, "== Fleet: 2 communities") {
		t.Fatalf("fleet: exit %d: %v", res.Code, res.Err)
	}
	if res := runRepro(t, context.Background(), append(tiny, "-experiment", "fig5")...); res.Code != 0 ||
		!strings.Contains(res.Stdout, "attacked PAR") {
		t.Fatalf("fig5: exit %d: %v", res.Code, res.Err)
	}
}

// TestScenarioBaselineDaysHonoured: every field of a scenario spec is
// content, so two specs that differ only in baseline_days — and therefore
// have different content IDs — must produce different figures, while the
// spec dumped from a flag line must reproduce that flag line's run exactly.
func TestScenarioBaselineDaysHonoured(t *testing.T) {
	if testing.Short() {
		t.Skip("three fig6 runs skipped in -short mode")
	}
	world := []string{"-n", "12", "-boot", "4", "-days", "1"}
	dump := runRepro(t, context.Background(), append(world, "-dump-scenario")...)
	if dump.Code != 0 {
		t.Fatalf("dump: exit %d: %v", dump.Code, dump.Err)
	}
	const two, four = `"baseline_days": 2`, `"baseline_days": 4`
	if strings.Count(dump.Stdout, two) != 1 {
		t.Fatalf("dumped spec does not hold %s exactly once:\n%s", two, dump.Stdout)
	}
	dir := t.TempDir()
	specTwo, specFour := filepath.Join(dir, "two.json"), filepath.Join(dir, "four.json")
	if err := os.WriteFile(specTwo, []byte(dump.Stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specFour, []byte(strings.Replace(dump.Stdout, two, four, 1)), 0o644); err != nil {
		t.Fatal(err)
	}

	fig6 := func(args ...string) string {
		t.Helper()
		res := runRepro(t, context.Background(), append(args, "-experiment", "fig6")...)
		if res.Code != 0 {
			t.Fatalf("%v: exit %d: %v", args, res.Code, res.Err)
		}
		return res.Stdout
	}
	outTwo, outFour := fig6("-scenario", specTwo), fig6("-scenario", specFour)
	if outTwo == outFour {
		t.Error("baseline_days 2 and 4 printed identical fig6 output: the spec field is ignored")
	}
	if flags := fig6(world...); outTwo != flags {
		t.Errorf("the dumped spec's fig6 differs from the flag-built run:\n%s\nwant:\n%s", outTwo, flags)
	}
}

// TestFlagErrorsBeforeWork runs every bad flag combination under an
// already-cancelled context: each must be refused with exit 2 before an
// experiment starts, and -report must not be written.
func TestFlagErrorsBeforeWork(t *testing.T) {
	report := filepath.Join(t.TempDir(), "r.md")
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-bogus"}, "flag provided but not defined"},
		{[]string{"-experiment", "fig7"}, `unknown experiment "fig7"`},
		{[]string{"-experiment", "fig3", "-report", report}, "-report requires -experiment all"},
		{[]string{"-experiment", "table1", "-json", "r.json"}, "-json requires"},
		{[]string{"-experiment", "fleet"}, "-experiment fleet needs a fleet"},
		{[]string{"-experiment", "fleet", "-communities", "1"}, "-experiment fleet needs a fleet"},
		{[]string{"-experiment", "attacks", "-checkpoint", "c.ckpt"}, "keeps no repro checkpoint"},
		{[]string{"-resume"}, "-resume requires -checkpoint"},
		{[]string{"-days", "0"}, "monitor days"},
	} {
		res := runRepro(t, clitest.Cancelled(), append(tiny, tc.args...)...)
		if res.Code != exitcode.Validation || !strings.Contains(res.Stderr, tc.msg) {
			t.Errorf("%v: exit %d, want 2 with %q; stderr:\n%s", tc.args, res.Code, tc.msg, res.Stderr)
		}
	}
	if _, err := os.Stat(report); !os.IsNotExist(err) {
		t.Fatalf("-report written by a refused run: %v", err)
	}
	if res := runRepro(t, context.Background(), "-h"); res.Code != exitcode.OK {
		t.Fatalf("-h: exit %d", res.Code)
	}
}
