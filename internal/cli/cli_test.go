package cli_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/cli"
	"nmdetect/internal/cli/clitest"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/obs"
)

// echo is a minimal command body: one -msg flag written to stdout, the
// observability flags, and a -fail selector for each exit class.
func echo(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("echo", flag.ContinueOnError)
	msg := fs.String("msg", "hi", "what to print")
	fail := fs.String("fail", "", "validation|runtime|incompatible|wait")
	obsCfg := cli.ObsFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	obsCfg.Cmd = "echo"
	if err := obs.Setup(*obsCfg); err != nil {
		return err
	}
	switch *fail {
	case "validation":
		return exitcode.AsValidation(errors.New("bad knob"))
	case "runtime":
		return errors.New("it broke")
	case "incompatible":
		return fmt.Errorf("foreign state: %w", checkpoint.ErrIncompatible)
	case "wait":
		fmt.Fprintln(stdout, "waiting")
		<-ctx.Done()
		return ctx.Err()
	}
	_, err := fmt.Fprintln(stdout, *msg)
	return err
}

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		args       []string
		code       int
		stderrHas  string
		stdoutWant string
	}{
		{nil, exitcode.OK, "", "hi\n"},
		{[]string{"-msg", "yo"}, exitcode.OK, "", "yo\n"},
		{[]string{"-h"}, exitcode.OK, "-msg string", ""},
		{[]string{"-bogus"}, exitcode.Validation, "echo: flag provided but not defined: -bogus", ""},
		{[]string{"-fail", "validation"}, exitcode.Validation, "echo: bad knob", ""},
		{[]string{"-fail", "runtime"}, exitcode.Runtime, "echo: it broke", ""},
		{[]string{"-fail", "incompatible"}, exitcode.ResumeIncompatible, "echo: foreign state", ""},
	}
	for _, tc := range cases {
		res := clitest.Run(t, context.Background(), "echo", echo, tc.args...)
		if res.Code != tc.code {
			t.Errorf("%v: exit %d, want %d (err %v)", tc.args, res.Code, tc.code, res.Err)
		}
		if !strings.Contains(res.Stderr, tc.stderrHas) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, res.Stderr, tc.stderrHas)
		}
		if res.Stdout != tc.stdoutWant {
			t.Errorf("%v: stdout %q, want %q", tc.args, res.Stdout, tc.stdoutWant)
		}
	}
}

func TestHelpIsNotReportedAsError(t *testing.T) {
	res := clitest.Run(t, context.Background(), "echo", echo, "-h")
	if !errors.Is(res.Err, flag.ErrHelp) {
		t.Fatalf("err %v, want flag.ErrHelp", res.Err)
	}
	if strings.Contains(res.Stderr, "echo: flag: help requested") {
		t.Fatalf("-h reported as an error: %q", res.Stderr)
	}
}

func TestObsFlagsAndFinishFlushEvents(t *testing.T) {
	events := filepath.Join(t.TempDir(), "run.jsonl")
	res := clitest.Run(t, context.Background(), "echo", echo, "-events", events, "-fail", "runtime")
	if res.Code != exitcode.Runtime {
		t.Fatalf("exit %d, want %d", res.Code, exitcode.Runtime)
	}
	// Finish must have closed the sink on the error path: the manifest is on
	// disk and the default sink is uninstalled.
	b, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"cmd":"echo"`)) {
		t.Fatalf("event stream lacks the manifest: %s", b)
	}
	if obs.Default() != nil {
		t.Fatal("Finish left the event sink installed")
	}
}

func TestFlagsListsSurface(t *testing.T) {
	got := clitest.Flags(t, "echo", echo)
	want := []string{
		"cpuprofile string",
		"events string",
		"fail string",
		"memprofile string",
		`msg string "hi"`,
		"pprof string",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("flags:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := cli.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "payload" {
		t.Fatalf("read back %q, %v", b, err)
	}
	boom := errors.New("render failed")
	if err := cli.WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("write error not propagated: %v", err)
	}
	if err := cli.WriteFile(filepath.Join(dir, "missing", "out.txt"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("create in a missing directory succeeded")
	}
}

// TestMainProcess runs Main for real in a child process (the test binary
// re-executed into TestEchoMain) to pin what only a process can show: the exit
// status and that SIGTERM cancels the run's context.
func TestMainProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	child := func(args ...string) *exec.Cmd {
		cmd := exec.Command(exe, append([]string{"-test.run=^TestEchoMain$", "--"}, args...)...)
		cmd.Env = append(os.Environ(), "CLI_ECHO_MAIN=1")
		return cmd
	}
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 0}, {[]string{"-h"}, 0}, {[]string{"-bogus"}, 2},
		{[]string{"-fail", "runtime"}, 3}, {[]string{"-fail", "incompatible"}, 4},
	} {
		cmd := child(tc.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		cmd.Run() //nolint:errcheck // the exit status is the assertion
		if got := cmd.ProcessState.ExitCode(); got != tc.code {
			t.Errorf("%v: exit %d, want %d; stderr:\n%s", tc.args, got, tc.code, stderr.String())
		}
	}

	cmd := child("-fail", "wait")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The body prints before blocking on ctx, so the handler is installed
	// by the time the line arrives.
	buf := make([]byte, len("waiting\n"))
	if _, err := io.ReadFull(stdout, buf); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }() //nolint:errcheck // exit status checked below
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatal("SIGTERM did not cancel the run")
	}
	if got := cmd.ProcessState.ExitCode(); got != exitcode.Runtime {
		t.Fatalf("SIGTERM: exit %d, want %d", got, exitcode.Runtime)
	}
	if !strings.Contains(stderr.String(), "echo: context canceled") {
		t.Fatalf("SIGTERM: stderr %q lacks the cancellation", stderr.String())
	}
}

// TestEchoMain is the child side of TestMainProcess; it does nothing in a
// normal test run.
func TestEchoMain(t *testing.T) {
	if os.Getenv("CLI_ECHO_MAIN") == "" {
		return
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	os.Args = append([]string{"echo"}, args...)
	cli.Main("echo", echo)
}
