// Package cli is the process lifecycle every command shares. A command's
// main is one line, cli.Main("nmsim", run): run parses its own flag set
// from args, does the work under ctx, writes its primary output to stdout
// and returns an error instead of exiting. Main owns everything around
// that — the SIGINT/SIGTERM context, obs.Shutdown (event-sink flush and
// profiles) on every path, the "<cmd>: <err>" line and the exit code from
// exitcode.For — so no command exits from inside a helper, and every run
// is testable in-process.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"nmdetect/internal/exitcode"
	"nmdetect/internal/obs"
)

// Run is a command body: parse args, do the work under ctx (cancelled on
// the first SIGINT/SIGTERM), write the primary output to stdout.
type Run func(ctx context.Context, args []string, stdout io.Writer) error

// Main runs a command body as the process and exits with the classified
// code of its error (exitcode.For: flag.ErrHelp and nil are 0, validation
// 2, runtime 3, resume-incompatible 4). It never returns.
func Main(name string, run Run) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(Finish(name, err, os.Stderr))
}

// Finish is Main's exit path after run returns: it unwinds obs.Setup
// (event sink, profiles), reports err as "<name>: <err>" on stderr (a -h
// request is not an error) and returns the exit code. A Shutdown failure is
// reported but does not change the code.
func Finish(name string, err error, stderr io.Writer) int {
	if serr := obs.Shutdown(); serr != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, serr)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	return exitcode.For(err)
}

// Parse parses args into fs, which should be flag.ContinueOnError: -h
// returns flag.ErrHelp (exit 0) and any other parse error, already printed
// with the usage by fs, comes back as a validation error (exit 2).
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return exitcode.AsValidation(err)
}

// ObsFlags registers -events, -pprof, -cpuprofile and -memprofile on fs and
// returns the obs.RunConfig they fill. The command completes the manifest
// fields (Cmd, ScenarioID, Seed, Workers) and passes it to obs.Setup; Main
// pairs that with obs.Shutdown.
func ObsFlags(fs *flag.FlagSet) *obs.RunConfig {
	c := &obs.RunConfig{}
	fs.StringVar(&c.EventsPath, "events", "", "write a JSONL run-event stream to this file")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return c
}

// WriteFile creates path and streams write into it. The Close error counts:
// a file whose final flush failed is reported, not silently truncated.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
