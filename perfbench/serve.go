package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/scenario"
)

// Serve shape: serveSessions sessions of serveMeters meters, each driven by
// its own closed-loop client for exactly serveDays day ingests, in the
// untraced and the traced run alike. A session keeps every ingested day in
// memory and each checkpoint rewrites them all, so an ingest costs more the
// more days came before it: a run that ingested until a timer ran out would
// do more, and dearer, work on a faster host or commit. The serve workload
// therefore does a fixed amount of work and ignores --seconds. Two sessions
// of 128 days leave about 25 samples beyond day_p90_ms.
const (
	serveSessions = 2
	serveMeters   = 8
	serveDays     = 128
	// serveReadAt is the ingest after which each client reads its
	// session's records (GET …/records?format=gob, everything so far), so
	// the read lands beside the other session's writes. The repository
	// documents no read rate for nmserve clients: its walkthrough and its
	// equivalence tests read everything once after ingesting. One read per
	// session half way through is the smallest mix that still puts reads
	// beside writes; it is an assumption, not a measured client pattern.
	serveReadAt = serveDays / 2
)

// serveSpec is session i's world: the serve-smoke preset under the given
// scenario seed, monitored for serveDays days with one solver worker.
func serveSpec(base scenario.Spec, seed uint64, i int) scenario.Spec {
	s := base
	s.Seed = seed
	s.Name = fmt.Sprintf("perfbench-serve-%d", i)
	s.Horizon.MonitorDays = serveDays
	s.Game.Workers = 1
	return s
}

// daemon is one nmserve process over a fresh state directory.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	client *http.Client
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startDaemon spawns nmserve on a loopback port with per-day durability
// (-checkpoint-every 1) and waits until it is listening. events, when set,
// is the daemon's obs event stream file.
func startDaemon(bin, dir, events string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no nmserve binary given (-nmserve)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	args := []string{"-state", filepath.Join(dir, "state"), "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-checkpoint-every", "1"}
	if events != "" {
		args = append(args, "-events", events)
	}
	logf, err := os.Create(filepath.Join(dir, "nmserve.log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: exec.Command(bin, args...), dir: dir, exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start nmserve: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil {
			d.base = "http://" + strings.TrimSpace(string(data))
			d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveSessions}}
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("nmserve exited before listening (%v): %s", d.err, d.logTail())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("nmserve not listening after 60s: %s", d.logTail())
		}
	}
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(filepath.Join(d.dir, "nmserve.log")) // best effort, for the error message
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// stop sends SIGTERM and waits for the drain-checkpoint-exit sequence; the
// daemon must exit 0. A daemon still running after a minute is killed.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal nmserve: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.kill()
		return errors.New("nmserve did not exit within a minute of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("nmserve exit after SIGTERM: %w: %s", d.err, d.logTail())
	}
	return nil
}

// kill ends the daemon unconditionally and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.exited
}

// call sends one request and reads the whole reply, returning the body and
// the client-side round trip. A status other than want is an error.
func (d *daemon) call(method, path string, body any, want int) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	if err != nil {
		return nil, rt, err
	}
	if resp.StatusCode != want {
		return nil, rt, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, rt, nil
}

// sessionLoad is one closed-loop client's measurements.
type sessionLoad struct {
	id      string
	days    []float64 // day-ingest round trips, ms
	records []float64 // round trips of the records read beside the ingests, ms
	all     []float64 // every request's round trip, final check read included, ms
	ops     tally
	results []*community.MonitorDayResult // the final gob records
}

// createSessions creates every session concurrently, each answering 201.
func createSessions(d *daemon, specs []scenario.Spec, loads []*sessionLoad) error {
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := map[string]any{"id": loads[i].id, "scenario": specs[i], "scenario_id": specs[i].ID()}
			_, rt, err := d.call(http.MethodPost, "/v1/sessions", req, http.StatusCreated)
			loads[i].all = append(loads[i].all, ms(rt))
			errs[i] = err
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// dayReply is the part of the day-ingest reply the benchmark checks.
type dayReply struct {
	Day          int      `json:"day"`
	Completed    int      `json:"completed"`
	BeliefBucket []int    `json:"belief_bucket"`
	Actions      []string `json:"actions"`
}

// drive runs one session's closed loop: serveDays day ingests, with the
// records read after the serveReadAt-th. It stops at the first failed
// operation or when ctx is done.
func (l *sessionLoad) drive(ctx context.Context, d *daemon) {
	for day := 0; day < serveDays && ctx.Err() == nil; day++ {
		data, rt, err := d.call(http.MethodPost, "/v1/sessions/"+l.id+"/days", map[string]int{"day": day}, http.StatusOK)
		if err == nil {
			l.days = append(l.days, ms(rt))
			l.all = append(l.all, ms(rt))
			err = checkReply(data, day)
		}
		l.ops.add(err)
		if err != nil {
			return
		}
		if day+1 == serveReadAt {
			rt, err := l.readRecords(d, day+1)
			if err != nil {
				return
			}
			l.records = append(l.records, rt)
		}
	}
}

func checkReply(data []byte, day int) error {
	var r dayReply
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("day %d reply: %w", day, err)
	}
	switch {
	case r.Day != day || r.Completed != day+1:
		return fmt.Errorf("day %d reply echoes day %d, completed %d", day, r.Day, r.Completed)
	case len(r.Actions) != hoursPerDay || len(r.BeliefBucket) != hoursPerDay:
		return fmt.Errorf("day %d reply has %d actions and %d belief buckets, want %d", day, len(r.Actions), len(r.BeliefBucket), hoursPerDay)
	}
	return nil
}

// readRecords fetches the session's records as gob and checks that they
// decode to exactly the ingested day count, each day well formed. It
// returns the round trip in ms.
func (l *sessionLoad) readRecords(d *daemon, ingested int) (float64, error) {
	data, rt, err := d.call(http.MethodGet, "/v1/sessions/"+l.id+"/records?format=gob", nil, http.StatusOK)
	if err == nil {
		l.all = append(l.all, ms(rt))
		var res []*community.MonitorDayResult
		if err = gob.NewDecoder(bytes.NewReader(data)).Decode(&res); err != nil {
			err = fmt.Errorf("decode %s records: %w", l.id, err)
		} else if len(res) != ingested {
			err = fmt.Errorf("%s records hold %d days, %d ingested", l.id, len(res), ingested)
		}
		for i := 0; err == nil && i < len(res); i++ {
			if err = checkDay(res[i]); err != nil {
				err = fmt.Errorf("%s record %d: %w", l.id, i, err)
			}
		}
		l.results = res
	}
	l.ops.add(err)
	return ms(rt), err
}

// serveRun is one daemon lifetime: spawn, create the sessions, run the
// closed loops, read the final records, stop.
type serveRun struct {
	setup time.Duration
	loads []*sessionLoad
	rss   float64 // daemon VmHWM after the final records reads, MiB
	ops   tally
}

// runDaemon spawns a daemon in dir, creates the sessions, runs every
// session's closed loop and reads its final records. It stops the daemon
// before returning, counting its exit as an operation.
func runDaemon(ctx context.Context, cfg config, dir, events string, specs []scenario.Spec) (*serveRun, error) {
	run := &serveRun{}
	for i := range specs {
		run.loads = append(run.loads, &sessionLoad{id: fmt.Sprintf("s%d", i)})
	}
	t0 := time.Now()
	d, err := startDaemon(cfg.nmserve, dir, events)
	if err != nil {
		return nil, err
	}
	if err := createSessions(d, specs, run.loads); err != nil {
		d.kill()
		return nil, fmt.Errorf("create sessions: %w", err)
	}
	run.setup = time.Since(t0)

	var wg sync.WaitGroup
	for _, l := range run.loads {
		wg.Add(1)
		go func(l *sessionLoad) {
			defer wg.Done()
			l.drive(ctx, d)
		}(l)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		d.kill()
		return nil, err
	}
	for _, l := range run.loads {
		if l.ops.failed == 0 {
			_, _ = l.readRecords(d, len(l.days)) // a failure is counted in l.ops
		}
		run.ops.merge(l.ops)
	}
	if run.rss, err = peakRSSMiB(d.cmd.Process.Pid); err != nil {
		d.kill()
		return nil, err
	}
	run.ops.add(d.stop())
	return run, nil
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	base, err := scenario.Preset("serve-smoke")
	if err != nil {
		return nil, err
	}
	specs := make([]scenario.Spec, serveSessions)
	for i := range specs {
		seed, err := stratify(cfg.seed, fmt.Sprintf("perfbench-serve-session-%d", i), func(c uint64) []scenario.Spec {
			return []scenario.Spec{serveSpec(base, c, i)}
		})
		if err != nil {
			return nil, err
		}
		specs[i] = serveSpec(base, seed, i)
		out.scenarios[fmt.Sprintf("serve/s%d", i)] = specs[i].ID()
	}
	if cfg.trace {
		return out, traceServe(ctx, out, cfg, specs)
	}

	// setupRepeats daemon lifetimes, each set up and driven through the
	// same closed loops. Each session's rate is its readings over the sum of
	// its ingest round trips, so the records reads stay out of the timer;
	// the sessions run side by side and their rates add up to the daemon's.
	var setups, rates, rss, days []float64
	reads := 0
	for i := 0; i < setupRepeats; i++ {
		r, err := runDaemon(ctx, cfg, filepath.Join(cfg.work, fmt.Sprintf("daemon-%d", i)), "", specs)
		if err != nil {
			return nil, err
		}
		out.ops.merge(r.ops)
		rate := 0.0
		for _, l := range r.loads {
			if len(l.days) == 0 {
				out.ops.add(errNoWork)
				return out, nil
			}
			days = append(days, l.days...)
			rate += float64(len(l.days)*serveMeters*hoursPerDay) / (sum(l.days) / 1e3)
			reads += len(l.records)
		}
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, rate)
		rss = append(rss, r.rss)
	}
	p90 := tail(days, 0.9)
	out.check(p90.OK(), "day_p90_ms rests on %s", p90)
	out.metrics["setup_s"] = median(setups)
	out.metrics["meter_days_per_s"] = median(rates) / hoursPerDay
	out.metrics["readings_per_s"] = median(rates)
	out.metrics["day_p50_ms"] = median(days)
	out.metrics["day_p90_ms"] = p90.Value
	out.metrics["peak_rss_mb"] = median(rss)
	out.note("set-up seconds: %.4g", setups)
	out.note("readings/s per daemon: %.6g; peak RSS MiB per daemon: %.4g", rates, rss)
	out.note("day latency: median %.4g ms; %s; %d records reads beside %d ingests", median(days), p90, reads, len(days))
	if top, ok := highestTail(days); ok {
		out.note("highest percentile with at least %d samples beyond: %s", minBeyond, top)
	}
	return out, nil
}

// traceServe is the traced serve run: the same closed loops against
// daemons without and with an obs event stream, in the order untraced,
// traced, traced, untraced so that drift cancels out of the overhead. The
// first traced daemon's stream gives the per-layer numbers.
func traceServe(ctx context.Context, out *outcome, cfg config, specs []scenario.Spec) error {
	var plainDays, tracedDays []float64
	var traced *serveRun
	var tracedDir, eventsPath string
	for i, withEvents := range []bool{false, true, true, false} {
		dir := filepath.Join(cfg.work, fmt.Sprintf("phase-%d", i))
		events := ""
		if withEvents {
			events = filepath.Join(dir, "events.jsonl")
		}
		r, err := runDaemon(ctx, cfg, dir, events, specs)
		if err != nil {
			return err
		}
		out.ops.merge(r.ops)
		for _, l := range r.loads {
			if withEvents {
				tracedDays = append(tracedDays, l.days...)
			} else {
				plainDays = append(plainDays, l.days...)
			}
		}
		if withEvents && traced == nil {
			traced, tracedDir, eventsPath = r, dir, events
		}
	}
	if out.ops.failed > 0 {
		return nil
	}
	f, err := os.Open(eventsPath)
	if err != nil {
		return err
	}
	ev, err := parseEvents(f)
	f.Close()
	if err != nil {
		return err
	}

	// The daemon writes one stream for the whole process. Session set-up
	// ends before the first day is ingested, so spans split at the last
	// set-up stage; counters are aggregated, so the set-up share is taken
	// from the same set-ups repeated in this process (they are
	// deterministic) and subtracted.
	setupCounts := map[string]int64{}
	for _, s := range specs {
		opts, err := s.CoreOptions()
		if err != nil {
			return err
		}
		sev, err := capture(ctx, func(ctx context.Context) error { _, err := core.NewSystem(ctx, opts); return err })
		if err != nil {
			return fmt.Errorf("in-process session set-up: %w", err)
		}
		for k, v := range sev.counters {
			setupCounts[k] += v
		}
	}
	split := 0
	for i, s := range ev.spans {
		if strings.HasPrefix(s.Name, "core.") {
			split = i + 1
		}
	}
	days := &events{spans: ev.spans[split:], counters: map[string]int64{}, stats: ev.stats}
	for k, v := range ev.counters {
		days.counters[k] = v - setupCounts[k]
	}
	setupEv := &events{spans: ev.spans[:split], counters: setupCounts}

	var firstDays, records, all []float64
	var runs [][]*community.MonitorDayResult
	for _, l := range traced.loads {
		firstDays = append(firstDays, l.days...)
		records = append(records, l.records...)
		all = append(all, l.all...)
		runs = append(runs, l.results)
	}
	out.setupLayers(setupEv, len(specs), traced.setup)
	out.dayLayers([]*events{days}, firstDays)
	out.absent(fleetLayers...)
	out.setOverhead(tracedDays, plainDays)

	save := ev.stats["checkpoint.save_seconds"]
	out.metrics["checkpoint.saves"] = float64(ev.counters["checkpoint.saves"])
	out.metrics["checkpoint.save_ms_mean"] = 1e3 * save.mean()
	var biggest int64
	for _, l := range traced.loads {
		fi, err := os.Stat(filepath.Join(tracedDir, "state", "sessions", l.id, "run.ckpt"))
		if err != nil {
			return fmt.Errorf("session checkpoint: %w", err)
		}
		biggest = max(biggest, fi.Size())
	}
	out.metrics["checkpoint.bytes_last"] = float64(biggest)
	server := 1e3 * ev.stats["serve.request_seconds"].mean()
	out.metrics["serve.request_ms_mean"] = server
	out.metrics["serve.client_wait_ms"] = mean(all) - server
	out.metrics["serve.records_ms"] = median(records)
	out.check(ev.stats["serve.request_seconds"].N == int64(len(all)),
		"daemon logged %d requests, clients sent %d", ev.stats["serve.request_seconds"].N, len(all))
	q := qualityOf(runs)
	out.checkQuality(q)
	out.setQuality(q)
	return nil
}
