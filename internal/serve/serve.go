// Package serve is the streaming detection service behind cmd/nmserve: the
// batch pipeline of cmd/nmdetect turned into an HTTP/JSON daemon where each
// detector session is a supervised, checkpoint-backed unit.
//
// A session is created from a scenario spec (content-ID verified, like the
// nmfleet workdir) and wraps a core.Runner: every POST of a day advances the
// runner by exactly one monitored day and returns the per-day flagger
// verdict, PAR delta and POMDP inspect/continue actions. Because the served
// path drives the identical per-day unit as the batch path, a session's
// sequence of per-day records is gob-byte-identical to a batch nmdetect run
// of the same scenario — test-enforced, including across a SIGKILL and
// restart of the daemon.
//
// Contracts (DESIGN.md §15):
//
//   - Durability: sessions checkpoint through internal/checkpoint at the
//     configured cadence and once more on graceful shutdown; a killed daemon
//     restarted over the same state directory resumes every session from its
//     last checkpoint bit-for-bit.
//   - Supervision: each day ingest runs under an optional watchdog deadline.
//     A step that fails or times out marks the session broken and evicts it
//     from memory without touching its on-disk checkpoint and without taking
//     down the process; re-creating the session resumes the last good state.
//   - Isolation: session state directories are pinned by scenario content ID.
//     A state directory whose spec or checkpoint no longer matches is refused
//     as resume-incompatible (exit code 4 via internal/exitcode), never
//     silently recomputed or spliced.
//
// The access log is the internal/obs layer: every request lands in the
// serve.* counters and latency statistics of the run's event stream.
package serve

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/community"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
)

// Detector names accepted by the create endpoint.
const (
	DetectorAware = "aware"
	DetectorBlind = "blind"
)

const (
	sessionFileName = "session.json"
	checkpointName  = "run.ckpt"
	sessionsDirName = "sessions"
)

// errIncompatibleState wraps checkpoint.ErrIncompatible so a refused state
// directory maps onto exit code 4 through internal/exitcode, exactly like a
// refused fleet workdir.
var errIncompatibleState = fmt.Errorf("state directory belongs to a different run (%w)", checkpoint.ErrIncompatible)

// Config configures a Server.
type Config struct {
	// StateDir is the daemon's durable root: one directory per session
	// (session.json + run.ckpt) under <StateDir>/sessions. Required.
	StateDir string
	// CheckpointEvery is the per-session checkpoint cadence in ingested days
	// (minimum 1 — the serving default, so every acknowledged day is
	// durable).
	CheckpointEvery int
	// StepDeadline is the per-day watchdog: a day ingest (one full
	// Runner.StepDay) exceeding it is cancelled and the session evicted.
	// 0 disables the deadline.
	StepDeadline time.Duration
}

// Server is the session store plus its HTTP API. Create one with New, mount
// Handler on an http.Server, and call CheckpointAll after draining.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.RWMutex
	sessions map[string]*Session
	// creating reserves session IDs mid-create: the ID is claimed under mu
	// before any disk I/O, so two concurrent creates for the same ID cannot
	// interleave their load/mkdir/persist/insert sequences.
	creating map[string]struct{}
}

// New builds a Server and eagerly restores every session found under the
// state directory: the offline phase is rebuilt from the stored scenario
// (deterministic), the runner resumes from the stored checkpoint. A state
// directory holding a foreign or tampered session fails with an error
// wrapping checkpoint.ErrIncompatible, and the daemon refuses to start —
// resuming "most" sessions would silently drop work.
func New(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("serve: state directory is required")
	}
	if cfg.CheckpointEvery < 1 {
		cfg.CheckpointEvery = 1
	}
	root := filepath.Join(cfg.StateDir, sessionsDirName)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	s := &Server{cfg: cfg, sessions: make(map[string]*Session), creating: make(map[string]struct{})}

	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		sf, err := loadSessionFile(dir)
		if err != nil {
			return nil, fmt.Errorf("serve: restore %s: %w", e.Name(), err)
		}
		if sf.ID != e.Name() {
			return nil, fmt.Errorf("serve: restore %s: session file names itself %q: %w", e.Name(), sf.ID, errIncompatibleState)
		}
		sess, err := buildSession(ctx, sf, dir, cfg.CheckpointEvery)
		if err != nil {
			return nil, err
		}
		s.sessions[sf.ID] = sess
	}
	s.routes()
	return s, nil
}

// Sessions reports the restored/created session count (for startup logs).
func (s *Server) Sessions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

// routes wires the API onto a method-and-pattern mux (Go 1.22 semantics).
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/days", s.handleDay)
	mux.HandleFunc("GET /v1/sessions/{id}/records", s.handleRecords)
	s.mux = mux
}

// statusWriter records the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the server's HTTP handler wrapped in the obs access log:
// request counts by status class plus a latency statistic, all landing in
// the run's event stream. With no sink installed the wrapper is free.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sink := obs.Default()
		if sink == nil {
			s.mux.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.mux.ServeHTTP(sw, r)
		sink.Count("serve.requests", 1)
		switch {
		case sw.code >= 500:
			sink.Count("serve.status.5xx", 1)
		case sw.code >= 400:
			sink.Count("serve.status.4xx", 1)
		default:
			sink.Count("serve.status.2xx", 1)
		}
		sink.Observe("serve.request_seconds", time.Since(start).Seconds())
	})
}

// apiError is the uniform JSON error shape.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, a ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, a...)})
}

// maxBodyBytes caps a request body. The API reads two bodies, a scenario spec
// and a day index, and both are a few KiB.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, refusing unknown fields and bodies
// over maxBodyBytes. On failure it writes the error reply, 413 for an
// oversized body and 400 otherwise, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "decode request: %v", err)
		return false
	}
	return true
}

// createRequest is the body of POST /v1/sessions. In this reproduction the
// community engine synthesizes the AMI feed the scenario describes, so the
// spec is the data source; an external-feed mode would slot in here.
type createRequest struct {
	// ID optionally names the session (directory-safe, <= 64 chars). Empty
	// derives a stable ID from (scenario content ID, detector, enforce).
	ID string `json:"id,omitempty"`
	// Scenario is the full scenario spec the session runs.
	Scenario *scenario.Spec `json:"scenario"`
	// ScenarioID optionally pins the expected content hash; a mismatch with
	// the submitted spec is refused, mirroring the nmfleet workdir check.
	ScenarioID string `json:"scenario_id,omitempty"`
	// Detector picks the kit: "aware" (default) or "blind".
	Detector string `json:"detector,omitempty"`
	// Enforce controls whether inspect actions repair the fleet (default
	// true).
	Enforce *bool `json:"enforce,omitempty"`
}

// createReply is the response of POST /v1/sessions.
type createReply struct {
	Status
	// Resumed is true when the session resumed an existing state directory
	// (daemon restart or recreate-after-eviction) instead of starting fresh.
	Resumed bool `json:"resumed"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Scenario == nil {
		writeError(w, http.StatusBadRequest, "missing scenario")
		return
	}
	spec := *req.Scenario
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	scenID := spec.ID()
	if req.ScenarioID != "" && req.ScenarioID != scenID {
		writeError(w, http.StatusBadRequest, "scenario hashes to %s, request pins %s", scenID, req.ScenarioID)
		return
	}
	detector := req.Detector
	if detector == "" {
		detector = DetectorAware
	}
	if detector != DetectorAware && detector != DetectorBlind {
		writeError(w, http.StatusBadRequest, "unknown detector %q (want aware|blind)", detector)
		return
	}
	enforce := true
	if req.Enforce != nil {
		enforce = *req.Enforce
	}
	id := req.ID
	if id == "" {
		id = deriveID(scenID, detector, enforce)
	} else if !validSessionID(id) {
		writeError(w, http.StatusBadRequest, "session id %q must match %s and not be a path element", id, idPattern)
		return
	}
	root := filepath.Join(s.cfg.StateDir, sessionsDirName)
	dir := filepath.Join(root, id)
	// Belt and braces over validSessionID: every session path must sit
	// directly under the sessions root, or a crafted ID could point the
	// state files (and a purge's RemoveAll) somewhere else entirely.
	if filepath.Dir(dir) != root {
		writeError(w, http.StatusBadRequest, "session id %q escapes the sessions root", id)
		return
	}

	// Reserve the ID before any disk I/O so concurrent creates for the same
	// ID cannot interleave: the loser fails here instead of overwriting the
	// winner's session.json or deleting its live directory below.
	s.mu.Lock()
	if _, live := s.sessions[id]; live {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "session %s already exists", id)
		return
	}
	if _, busy := s.creating[id]; busy {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "session %s is being created", id)
		return
	}
	s.creating[id] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.creating, id)
		s.mu.Unlock()
	}()

	sf := sessionFile{ID: id, ScenarioID: scenID, Scenario: spec, Detector: detector, Enforce: enforce}
	resumed := false
	created := false
	if existing, err := loadSessionFile(dir); err == nil {
		// A dormant state directory (daemon restarted without it? no — that
		// restores eagerly; this is recreate-after-eviction): resume it if
		// and only if the request describes the same session.
		if existing.ScenarioID != scenID || existing.Detector != detector || existing.Enforce != enforce {
			writeError(w, http.StatusConflict,
				"session %s exists on disk with scenario %s detector %s enforce %v; refusing to mix runs",
				id, existing.ScenarioID, existing.Detector, existing.Enforce)
			return
		}
		resumed = true
	} else if !os.IsNotExist(err) {
		writeError(w, http.StatusConflict, "session state %s unreadable: %v", id, err)
		return
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			writeError(w, http.StatusInternalServerError, "create session dir: %v", err)
			return
		}
		created = true
		if err := saveSessionFile(dir, sf); err != nil {
			os.RemoveAll(dir)
			writeError(w, http.StatusInternalServerError, "persist session: %v", err)
			return
		}
	}

	sess, err := buildSession(r.Context(), sf, dir, s.cfg.CheckpointEvery)
	if err != nil {
		// Only remove a directory this request actually made; a resumed
		// directory keeps its checkpoint for the next attempt.
		if created {
			os.RemoveAll(dir)
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	// The reservation makes this insert race-free: no other create can have
	// claimed the ID while we held it.
	s.mu.Lock()
	s.sessions[id] = sess
	s.mu.Unlock()

	if sink := obs.Default(); sink != nil {
		sink.Count("serve.sessions_created", 1)
	}
	code := http.StatusCreated
	if resumed {
		code = http.StatusOK
	}
	writeJSON(w, code, createReply{Status: sess.status(), Resumed: resumed})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if sess := s.lookup(id); sess != nil {
			out = append(out, sess.status())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(id string) *Session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

// evict unloads id from the live map and counts the eviction. Callers hold
// the session's own lock (the established order is sess.mu before s.mu);
// the on-disk checkpoint — the last good state — is left for a recreate.
func (s *Server) evict(id string) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	if sink := obs.Default(); sink != nil {
		sink.Count("serve.sessions_evicted", 1)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "no session %s", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sess.status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		writeError(w, http.StatusNotFound, "no session %s", id)
		return
	}
	// Checkpoint before unloading: if the final checkpoint fails the client
	// must be able to see the loss (500 + broken + the evicted counter)
	// rather than finding the session silently gone with its last
	// -checkpoint-every days dropped.
	sess.mu.Lock()
	if !sess.broken {
		if err := sess.runner.Checkpoint(); err != nil {
			sess.broken = true
			s.evict(id)
			sess.mu.Unlock()
			writeError(w, http.StatusInternalServerError,
				"final checkpoint failed, session evicted (recreate resumes the last good checkpoint): %v", err)
			return
		}
	}
	sess.mu.Unlock()
	s.mu.Lock()
	_, present := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !present {
		// A concurrent delete or eviction got there first.
		writeError(w, http.StatusNotFound, "no session %s", id)
		return
	}
	if purge, _ := strconv.ParseBool(r.URL.Query().Get("purge")); purge {
		if err := os.RemoveAll(sess.dir); err != nil {
			writeError(w, http.StatusInternalServerError, "purge session state: %v", err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// dayRequest is the body of POST /v1/sessions/{id}/days: the ingest tick
// for one day of meter readings and published prices. Day indices are
// 0-based and must arrive strictly in order.
type dayRequest struct {
	Day *int `json:"day"`
}

func (s *Server) handleDay(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		writeError(w, http.StatusNotFound, "no session %s", id)
		return
	}
	var req dayRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Day == nil || *req.Day < 0 {
		writeError(w, http.StatusBadRequest, "missing or negative day index")
		return
	}
	day := *req.Day

	// The session lock is released before the response is written: a slow
	// client draining its day reply must not block status, listing, delete
	// or shutdown checkpointing on this session.
	reply, code, msg := s.stepSessionDay(sess, id, day)
	if code != http.StatusOK {
		writeError(w, code, "%s", msg)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// stepSessionDay advances sess by one monitored day under its lock and
// assembles the verdict, returning an HTTP status and error message instead
// of writing them, so the caller serializes to the client lock-free.
func (s *Server) stepSessionDay(sess *Session, id string, day int) (DayReply, int, string) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.broken {
		return DayReply{}, http.StatusConflict, fmt.Sprintf("session %s is broken and pending eviction", id)
	}
	completed := sess.runner.Completed()
	switch {
	case day < completed:
		return DayReply{}, http.StatusConflict, fmt.Sprintf("day %d already ingested (%d days completed)", day, completed)
	case day > completed:
		return DayReply{}, http.StatusConflict, fmt.Sprintf("day %d out of order: next day is %d", day, completed)
	case completed >= sess.days:
		return DayReply{}, http.StatusConflict, fmt.Sprintf("horizon exhausted: %d of %d days ingested", completed, sess.days)
	}

	// The step runs under the daemon's own context, not the request's: a
	// client disconnect must not cancel a solver mid-day and corrupt the
	// in-memory engine state. The watchdog deadline is the only canceller.
	ctx := context.Background()
	if s.cfg.StepDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.StepDeadline)
		defer cancel()
	}
	if err := sess.runner.StepDay(ctx); err != nil {
		// The session may have advanced partway through the day: evict it,
		// leaving the on-disk checkpoint (last good state) for a recreate.
		sess.broken = true
		s.evict(id)
		return DayReply{}, http.StatusInternalServerError,
			fmt.Sprintf("day %d failed, session evicted (recreate to resume from checkpoint): %v", day, err)
	}
	done := sess.runner.Completed()
	if sess.runner.CheckpointDue(done, sess.days) {
		if err := sess.runner.Checkpoint(); err != nil {
			// The day is computed but not durable; fail-stop the session so
			// the client's view never runs ahead of what a restart restores.
			sess.broken = true
			s.evict(id)
			return DayReply{}, http.StatusInternalServerError,
				fmt.Sprintf("checkpoint after day %d failed, session evicted: %v", day, err)
		}
	}
	if sink := obs.Default(); sink != nil {
		sink.Count("serve.days_ingested", 1)
	}
	return dayReply(id, day, done, sess.days, sess.runner.Results()), http.StatusOK, ""
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		writeError(w, http.StatusNotFound, "no session %s", id)
		return
	}
	sess.mu.Lock()
	results := append([]*community.MonitorDayResult(nil), sess.runner.Results()...)
	days := sess.days
	sess.mu.Unlock()

	switch format := r.URL.Query().Get("format"); format {
	case "gob":
		// The raw per-day records as one gob stream — the representation the
		// batch-equivalence contract is stated (and test-enforced) in.
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := gob.NewEncoder(w).Encode(results); err != nil && obs.Default() != nil {
			obs.Default().Count("serve.records_encode_errors", 1)
		}
	case "", "json":
		out := make([]DayReply, len(results))
		for d := range results {
			out[d] = dayReply(id, d, len(results), days, results)
		}
		writeJSON(w, http.StatusOK, out)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json|gob)", format)
	}
}

// CheckpointAll writes a final checkpoint for every live session — the
// graceful-shutdown half of the durability contract, called by cmd/nmserve
// after the HTTP server has drained. Broken sessions are skipped (their
// in-memory state is suspect; disk already holds their last good state).
// All sessions are attempted; the first error is returned.
func (s *Server) CheckpointAll() error {
	s.mu.RLock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.RUnlock()
	var first error
	for _, sess := range sessions {
		sess.mu.Lock()
		if !sess.broken {
			if err := sess.runner.Checkpoint(); err != nil && first == nil {
				first = fmt.Errorf("serve: checkpoint session %s: %w", sess.id, err)
			}
		}
		sess.mu.Unlock()
	}
	return first
}
