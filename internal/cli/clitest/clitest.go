// Package clitest drives a command's cli.Run in-process for its tests: it
// captures stdout and stderr and maps the returned error through cli.Finish,
// exactly as cli.Main would, without exiting the test binary.
package clitest

import (
	"bytes"
	"context"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"nmdetect/internal/cli"
)

// Result is one in-process run of a command.
type Result struct {
	Stdout string
	Stderr string // the command's own stderr plus Finish's "<cmd>: <err>" line
	Err    error  // what run returned
	Code   int    // the exit code cli.Main would have used
}

// Run calls run(ctx, args, stdout) as command name. os.Stderr is redirected
// for the duration of the call (flag usage, progress lines), so tests that
// use Run must not run in parallel.
func Run(t testing.TB, ctx context.Context, name string, run cli.Run, args ...string) Result {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	captured := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		captured <- string(b)
	}()
	var stdout, finish bytes.Buffer
	res := Result{Err: run(ctx, args, &stdout)}
	res.Code = cli.Finish(name, res.Err, &finish)
	os.Stderr = saved
	w.Close()
	res.Stderr = <-captured + finish.String()
	r.Close()
	res.Stdout = stdout.String()
	return res
}

// Cancelled returns an already-cancelled context: a run under it that got
// past flag validation into real work fails with context.Canceled (exit 3),
// so a test can tell a flag check (exit 2) from a build that started.
func Cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// flagLine matches a flag header in -h output: "  -name type".
var flagLine = regexp.MustCompile(`^  -(\S+)(?: (\S+))?$`)

// defaultValue matches the "(default X)" suffix of a flag's usage text.
var defaultValue = regexp.MustCompile(`\(default (.*)\)$`)

// Flags runs the command with -h and returns its flag surface, one
// "name type default" line per flag in -h order (type "bool" for boolean
// flags; zero defaults, which -h omits, leave "name type").
func Flags(t testing.TB, name string, run cli.Run) []string {
	t.Helper()
	res := Run(t, context.Background(), name, run, "-h")
	if res.Code != 0 {
		t.Fatalf("%s -h: exit %d, want 0 (%v)", name, res.Code, res.Err)
	}
	var out []string
	for _, line := range strings.Split(res.Stderr, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			typ := m[2]
			if typ == "" {
				typ = "bool"
			}
			out = append(out, m[1]+" "+typ)
			continue
		}
		if d := defaultValue.FindStringSubmatch(strings.TrimSpace(line)); d != nil && len(out) > 0 {
			out[len(out)-1] += " " + d[1]
		}
	}
	return out
}
