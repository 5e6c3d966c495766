package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/core"
	"nmdetect/internal/scenario"
)

func stateSessionDir(state, id string) string {
	return filepath.Join(state, sessionsDirName, id)
}

func isIncompatible(err error) bool {
	return errors.Is(err, checkpoint.ErrIncompatible)
}

// tinySpec is the smallest scenario that still exercises multi-day
// monitoring — the same shape the fleet e2e tests use.
func tinySpec(t *testing.T) scenario.Spec {
	t.Helper()
	spec := scenario.Default(6, 12345)
	spec.Horizon.BootstrapDays = 4
	spec.Horizon.MonitorDays = 3
	spec.Game.Sweeps = 2
	spec.Detector.Solver = "qmdp"
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	srv, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// createSession posts spec as a session and returns its ID.
func createSession(t *testing.T, base string, spec scenario.Spec, id string) string {
	t.Helper()
	resp, raw := doJSON(t, http.MethodPost, base+"/v1/sessions",
		createRequest{ID: id, Scenario: &spec})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %s", resp.StatusCode, raw)
	}
	var rep createReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.ID
}

func postDay(t *testing.T, base, id string, day int) DayReply {
	t.Helper()
	resp, raw := doJSON(t, http.MethodPost, base+"/v1/sessions/"+id+"/days", dayRequest{Day: &day})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post day %d: %d %s", day, resp.StatusCode, raw)
	}
	var rep DayReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func fetchGob(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, raw := doJSON(t, http.MethodGet, base+"/v1/sessions/"+id+"/records?format=gob", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch records: %d %s", resp.StatusCode, raw)
	}
	return raw
}

// batchGob runs the batch path (core.System.MonitorDays — the nmdetect
// pipeline) for the spec and gob-encodes its records, the reference
// representation of the equivalence contract.
func batchGob(t *testing.T, spec scenario.Spec, detector string, enforce bool) []byte {
	t.Helper()
	opts, err := spec.CoreOptions()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	kit := sys.Aware
	if detector == DetectorBlind {
		kit = sys.Blind
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.MonitorDays(context.Background(), kit, camp, spec.Horizon.MonitorDays, enforce)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServedRecordsMatchBatch is the tentpole contract: day-at-a-time
// ingestion over HTTP produces per-day records gob-byte-identical to a batch
// nmdetect run of the same scenario.
func TestServedRecordsMatchBatch(t *testing.T) {
	spec := tinySpec(t)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, spec, "")

	for d := 0; d < spec.Horizon.MonitorDays; d++ {
		rep := postDay(t, ts.URL, id, d)
		if rep.Day != d || rep.Completed != d+1 {
			t.Fatalf("day %d reply: day=%d completed=%d", d, rep.Day, rep.Completed)
		}
		if len(rep.Actions) != 24 || len(rep.Flagged) != 24 {
			t.Fatalf("day %d reply: %d actions, %d flagged slots", d, len(rep.Actions), len(rep.Flagged))
		}
		for h, a := range rep.Actions {
			if a != "inspect" && a != "continue" {
				t.Fatalf("day %d slot %d: action %q", d, h, a)
			}
		}
	}

	served := fetchGob(t, ts.URL, id)
	batch := batchGob(t, spec, DetectorAware, true)
	if !bytes.Equal(served, batch) {
		t.Fatalf("served records (%d bytes) differ from batch records (%d bytes)", len(served), len(batch))
	}
}

// TestRestartResumesByteIdentical kills the server mid-horizon (new Server
// over the same state dir, as a daemon restart would) and checks the
// finished session still matches the batch run byte-for-byte.
func TestRestartResumesByteIdentical(t *testing.T) {
	spec := tinySpec(t)
	state := t.TempDir()
	_, ts := newTestServer(t, Config{StateDir: state})
	id := createSession(t, ts.URL, spec, "resume-me")
	postDay(t, ts.URL, id, 0)
	ts.Close() // CheckpointEvery=1 already made day 0 durable; no graceful drain

	srv2, err := New(context.Background(), Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Sessions() != 1 {
		t.Fatalf("restarted server restored %d sessions, want 1", srv2.Sessions())
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	resp, raw := doJSON(t, http.MethodGet, ts2.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session after restart: %d %s", resp.StatusCode, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 {
		t.Fatalf("restarted session completed = %d, want 1", st.Completed)
	}

	for d := 1; d < spec.Horizon.MonitorDays; d++ {
		postDay(t, ts2.URL, id, d)
	}
	if got, want := fetchGob(t, ts2.URL, id), batchGob(t, spec, DetectorAware, true); !bytes.Equal(got, want) {
		t.Fatal("records after restart differ from uninterrupted batch run")
	}
}

// TestCreateResumesDormantState covers recreate-after-eviction: a session
// directory on disk with no live session resumes on POST with code 200, and
// a request describing a different run is refused with 409.
func TestCreateResumesDormantState(t *testing.T) {
	spec := tinySpec(t)
	state := t.TempDir()
	_, ts := newTestServer(t, Config{StateDir: state})
	id := createSession(t, ts.URL, spec, "dormant")
	postDay(t, ts.URL, id, 0)

	if resp, raw := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d %s", resp.StatusCode, raw)
	}
	// Same run: resumed, 200, progress kept.
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", createRequest{ID: id, Scenario: &spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recreate: %d %s", resp.StatusCode, raw)
	}
	var rep createReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Resumed || rep.Completed != 1 {
		t.Fatalf("recreate: resumed=%v completed=%d, want true/1", rep.Resumed, rep.Completed)
	}
	// Different detector over the same directory: refused.
	if resp, raw := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d %s", resp.StatusCode, raw)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		createRequest{ID: id, Scenario: &spec, Detector: DetectorBlind})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("recreate with different detector: %d, want 409", resp.StatusCode)
	}
}

// TestHandlerErrors is the request-validation table: malformed bodies,
// unknown sessions, duplicate/out-of-order days, duplicate creates.
func TestHandlerErrors(t *testing.T) {
	spec := tinySpec(t)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, spec, "tbl")
	postDay(t, ts.URL, id, 0)

	bad := tinySpec(t)
	bad.N = 1 // fails Validate
	day := func(d int) dayRequest { return dayRequest{Day: &d} }
	// A valid create request padded past the body cap.
	big, err := json.Marshal(createRequest{ID: "big", Scenario: &spec})
	if err != nil {
		t.Fatal(err)
	}
	padding := strings.Repeat(" ", maxBodyBytes)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"malformed create body", "POST", "/v1/sessions", "{not json", http.StatusBadRequest},
		{"create without scenario", "POST", "/v1/sessions", createRequest{}, http.StatusBadRequest},
		{"create invalid scenario", "POST", "/v1/sessions", createRequest{Scenario: &bad}, http.StatusBadRequest},
		{"create pinned to wrong scenario id", "POST", "/v1/sessions", createRequest{Scenario: &spec, ScenarioID: "sc-feedfeedfeedfeed"}, http.StatusBadRequest},
		{"create with unknown detector", "POST", "/v1/sessions", createRequest{Scenario: &spec, Detector: "psychic"}, http.StatusBadRequest},
		{"create with bad id", "POST", "/v1/sessions", createRequest{ID: "no/slashes", Scenario: &spec}, http.StatusBadRequest},
		{"create with dot id", "POST", "/v1/sessions", createRequest{ID: ".", Scenario: &spec}, http.StatusBadRequest},
		{"create with dotdot id", "POST", "/v1/sessions", createRequest{ID: "..", Scenario: &spec}, http.StatusBadRequest},
		{"duplicate create", "POST", "/v1/sessions", createRequest{ID: "tbl", Scenario: &spec}, http.StatusConflict},
		{"oversized create body", "POST", "/v1/sessions", "{" + padding + string(big[1:]), http.StatusRequestEntityTooLarge},
		{"oversized create made no session", "GET", "/v1/sessions/big", nil, http.StatusNotFound},
		{"unknown session status", "GET", "/v1/sessions/ghost", nil, http.StatusNotFound},
		{"unknown session delete", "DELETE", "/v1/sessions/ghost", nil, http.StatusNotFound},
		{"unknown session day", "POST", "/v1/sessions/ghost/days", day(0), http.StatusNotFound},
		{"unknown session records", "GET", "/v1/sessions/ghost/records", nil, http.StatusNotFound},
		{"malformed day body", "POST", "/v1/sessions/tbl/days", "{not json", http.StatusBadRequest},
		{"oversized day body", "POST", "/v1/sessions/tbl/days", `{"day": 1` + padding + "}", http.StatusRequestEntityTooLarge},
		{"day without index", "POST", "/v1/sessions/tbl/days", map[string]any{}, http.StatusBadRequest},
		{"negative day", "POST", "/v1/sessions/tbl/days", day(-1), http.StatusBadRequest},
		{"duplicate day", "POST", "/v1/sessions/tbl/days", day(0), http.StatusConflict},
		{"out-of-order day", "POST", "/v1/sessions/tbl/days", day(2), http.StatusConflict},
		{"unknown records format", "GET", "/v1/sessions/tbl/records?format=xml", nil, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body any = tc.body
			if s, ok := tc.body.(string); ok {
				// Raw non-JSON payload.
				req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(s))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Fatalf("got %d, want %d", resp.StatusCode, tc.want)
				}
				return
			}
			resp, raw := doJSON(t, tc.method, ts.URL+tc.path, body)
			if resp.StatusCode != tc.want {
				t.Fatalf("got %d %s, want %d", resp.StatusCode, raw, tc.want)
			}
			var apiErr apiError
			if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Error == "" {
				t.Fatalf("error response is not the JSON error shape: %s", raw)
			}
		})
	}
}

// TestHorizonExhausted verifies the session refuses days past its
// monitoring horizon, keeping batch equivalence exact.
func TestHorizonExhausted(t *testing.T) {
	spec := tinySpec(t)
	spec.Horizon.MonitorDays = 1
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, spec, "")
	postDay(t, ts.URL, id, 0)
	d := 1
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/days", dayRequest{Day: &d})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("day past horizon: %d %s, want 409", resp.StatusCode, raw)
	}
}

// TestConcurrentSessions drives several sessions at once (run under -race
// via make race) and checks each still matches its own batch reference.
func TestConcurrentSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	specs := make([]scenario.Spec, 3)
	ids := make([]string, len(specs))
	for i := range specs {
		specs[i] = tinySpec(t)
		specs[i].Seed = uint64(1000 + i) // distinct worlds
		ids[i] = createSession(t, ts.URL, specs[i], fmt.Sprintf("conc-%d", i))
	}
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for d := 0; d < specs[i].Horizon.MonitorDays; d++ {
				resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[i]+"/days", dayRequest{Day: &d})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("session %d day %d: %d %s", i, d, resp.StatusCode, raw)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("day ingestion failed; skipping record comparison")
	}
	for i := range specs {
		if got, want := fetchGob(t, ts.URL, ids[i]), batchGob(t, specs[i], DetectorAware, true); !bytes.Equal(got, want) {
			t.Errorf("session %d records differ from its batch run", i)
		}
	}
}

// TestConcurrentCreateSameID races creates for one ID with distinct
// scenarios (run under -race via make race): exactly one must win with 201,
// the rest 409, and the winner's live session must agree with the
// session.json on disk — no cross-request splice of spec and state.
func TestConcurrentCreateSameID(t *testing.T) {
	state := t.TempDir()
	srv, ts := newTestServer(t, Config{StateDir: state})
	const racers = 4
	specs := make([]scenario.Spec, racers)
	codes := make([]int, racers)
	var wg sync.WaitGroup
	for i := range specs {
		specs[i] = tinySpec(t)
		specs[i].Seed = uint64(2000 + i) // distinct worlds
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
				createRequest{ID: "raced", Scenario: &specs[i]})
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	winner := -1
	for i, c := range codes {
		switch c {
		case http.StatusCreated:
			if winner >= 0 {
				t.Fatalf("two creates won (codes %v)", codes)
			}
			winner = i
		case http.StatusConflict:
		default:
			t.Fatalf("racer %d: status %d (codes %v)", i, c, codes)
		}
	}
	if winner < 0 {
		t.Fatalf("no create won (codes %v)", codes)
	}
	sf, err := loadSessionFile(stateSessionDir(state, "raced"))
	if err != nil {
		t.Fatal(err)
	}
	if sf.ScenarioID != specs[winner].ID() {
		t.Fatalf("disk scenario %s is not the winner's %s", sf.ScenarioID, specs[winner].ID())
	}
	if st := srv.lookup("raced").status(); st.ScenarioID != sf.ScenarioID {
		t.Fatalf("live session scenario %s disagrees with disk %s", st.ScenarioID, sf.ScenarioID)
	}
}

// TestWatchdogEvictsWedgedSession pins the supervision contract: a day
// ingest exceeding the step deadline returns 500, the session is evicted
// (404 afterwards) without taking down the server, and recreating the
// session resumes the last checkpointed state.
func TestWatchdogEvictsWedgedSession(t *testing.T) {
	spec := tinySpec(t)
	state := t.TempDir()
	srv, err := New(context.Background(), Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := createSession(t, ts.URL, spec, "wedge")
	postDay(t, ts.URL, id, 0) // durable at CheckpointEvery=1

	// Wedge: shrink the deadline below any real day's cost.
	srv.cfg.StepDeadline = time.Nanosecond
	d := 1
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/days", dayRequest{Day: &d})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("wedged day: %d %s, want 500", resp.StatusCode, raw)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("wedged session still listed: %d, want 404", resp.StatusCode)
	}
	if resp, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("server down after eviction: %d %s", resp.StatusCode, raw)
	}

	// Recreate resumes the last good state and can finish the horizon.
	srv.cfg.StepDeadline = 0
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", createRequest{ID: id, Scenario: &spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recreate after eviction: %d %s", resp.StatusCode, raw)
	}
	var rep createReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Resumed || rep.Completed != 1 {
		t.Fatalf("recreate: resumed=%v completed=%d, want true/1", rep.Resumed, rep.Completed)
	}
	for d := 1; d < spec.Horizon.MonitorDays; d++ {
		postDay(t, ts.URL, id, d)
	}
	if got, want := fetchGob(t, ts.URL, id), batchGob(t, spec, DetectorAware, true); !bytes.Equal(got, want) {
		t.Fatal("records after eviction+resume differ from uninterrupted batch run")
	}
}

// TestIncompatibleStateRefused pins the exit-4 pathway at the package level:
// a hand-edited session file fails New with checkpoint.ErrIncompatible in
// the chain.
func TestIncompatibleStateRefused(t *testing.T) {
	spec := tinySpec(t)
	state := t.TempDir()
	_, ts := newTestServer(t, Config{StateDir: state})
	id := createSession(t, ts.URL, spec, "tamper")
	postDay(t, ts.URL, id, 0)
	ts.Close()

	// Tamper: change the stored scenario without re-hashing.
	sf, err := loadSessionFile(stateSessionDir(state, id))
	if err != nil {
		t.Fatal(err)
	}
	sf.Scenario.Seed++
	if err := saveSessionFile(stateSessionDir(state, id), sf); err != nil {
		t.Fatal(err)
	}
	_, err = New(context.Background(), Config{StateDir: state})
	if err == nil {
		t.Fatal("New accepted a tampered session file")
	}
	if !isIncompatible(err) {
		t.Fatalf("tampered state error is not resume-incompatible: %v", err)
	}
}

// TestRecordsJSONShape sanity-checks the JSON records listing and PAR
// bookkeeping: par_cum of the last day equals the batch RealizedPAR and the
// deltas telescope onto it.
func TestRecordsJSONShape(t *testing.T) {
	spec := tinySpec(t)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, spec, "")
	var last DayReply
	for d := 0; d < spec.Horizon.MonitorDays; d++ {
		last = postDay(t, ts.URL, id, d)
	}
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id+"/records", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("records: %d %s", resp.StatusCode, raw)
	}
	var days []DayReply
	if err := json.Unmarshal(raw, &days); err != nil {
		t.Fatal(err)
	}
	if len(days) != spec.Horizon.MonitorDays {
		t.Fatalf("records: %d days, want %d", len(days), spec.Horizon.MonitorDays)
	}
	if days[len(days)-1].CumPAR != last.CumPAR {
		t.Fatalf("records par_cum %v != last day reply %v", days[len(days)-1].CumPAR, last.CumPAR)
	}
	sum := days[0].CumPAR
	for _, d := range days[1:] {
		sum += d.PARDelta
	}
	if diff := sum - last.CumPAR; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("PAR deltas do not telescope: %v vs %v", sum, last.CumPAR)
	}
}
