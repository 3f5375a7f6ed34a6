package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mavfi/internal/campaign/matrix"
)

// testSpec is the small single-cell job every server test flies: sensor
// faults on the sparse world, three missions.
func testSpec() JobSpec {
	return JobSpec{World: "sparse", Fault: "sensor", Severity: "high", Runs: 3, Seed: 42}
}

// newTestServer starts a Server plus its httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postJob submits spec and decodes the response status.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec, wait bool) (Status, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	url := ts.URL + "/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding job status: %v", err)
		}
	}
	return st, resp.StatusCode
}

// getStatus fetches a job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) (Status, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding job status: %v", err)
		}
	}
	return st, resp.StatusCode
}

// getBody fetches path and returns its body and status code.
func getBody(t *testing.T, ts *httptest.Server, path string) (string, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

// TestServedJobMatchesCLIByteIdentity is the service's core determinism
// contract: a job served at any worker width produces mission results and
// CSV artifacts byte-identical to the equivalent one-shot CLI invocation.
// The reference runs matrix.Run cold (fresh assets, a third worker width);
// the served jobs run warm at 1 and 4 workers through HTTP.
func TestServedJobMatchesCLIByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	spec := testSpec()
	_, mspec, err := spec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	mspec.Workers = 2
	ref, err := matrix.Run(context.Background(), mspec)
	if err != nil {
		t.Fatal(err)
	}
	refCell := ref.Cells[0].CSV()
	refSummary := ref.SummaryCSV()

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: workers})
			st, code := postJob(t, ts, spec, true)
			if code != http.StatusOK {
				t.Fatalf("submit: status %d", code)
			}
			if st.State != JobDone {
				t.Fatalf("job state %q, want done (error: %s)", st.State, st.Error)
			}
			if len(st.Missions) != spec.Runs {
				t.Fatalf("%d mission results, want %d", len(st.Missions), spec.Runs)
			}
			for i, ev := range st.Missions {
				if ev.Mission != i {
					t.Errorf("mission %d out of order (index %d)", ev.Mission, i)
				}
				if want := ref.Cells[0].Cell.MissionSeed(i); ev.Seed != want {
					t.Errorf("mission %d seed %d, want %d", i, ev.Seed, want)
				}
				if want := ref.Cells[0].Campaign.Results[i].Outcome.String(); ev.Outcome != want {
					t.Errorf("mission %d outcome %q, want %q", i, ev.Outcome, want)
				}
			}
			cell, code := getBody(t, ts, "/jobs/"+st.ID+"/cell.csv")
			if code != http.StatusOK {
				t.Fatalf("cell.csv: status %d", code)
			}
			if cell != refCell {
				t.Errorf("served cell CSV differs from CLI bytes:\nserved:\n%s\ncli:\n%s", cell, refCell)
			}
			summary, code := getBody(t, ts, "/jobs/"+st.ID+"/summary.csv")
			if code != http.StatusOK {
				t.Fatalf("summary.csv: status %d", code)
			}
			if summary != refSummary {
				t.Errorf("served summary CSV differs from CLI bytes:\nserved:\n%s\ncli:\n%s", summary, refSummary)
			}
		})
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses an SSE stream until EOF.
func readSSE(r io.Reader) []sseEvent {
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			evs = append(evs, cur)
			cur = sseEvent{}
		}
	}
	return evs
}

// TestStreamDeliversEveryMission subscribes to a job's SSE stream and checks
// it carries every mission exactly once (history plus live events) and ends
// with the terminal "done" status.
func TestStreamDeliversEveryMission(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := testSpec()
	st, code := postJob(t, ts, spec, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	evs := readSSE(resp.Body)
	if len(evs) == 0 {
		t.Fatal("no SSE events")
	}
	last := evs[len(evs)-1]
	if last.name != "done" {
		t.Fatalf("last event %q, want done", last.name)
	}
	var final Status
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatalf("decoding done status: %v", err)
	}
	if final.State != JobDone {
		t.Fatalf("final state %q (error: %s)", final.State, final.Error)
	}
	seen := make(map[int]int)
	for _, ev := range evs[:len(evs)-1] {
		if ev.name != "mission" {
			t.Fatalf("unexpected event %q", ev.name)
		}
		var me MissionEvent
		if err := json.Unmarshal([]byte(ev.data), &me); err != nil {
			t.Fatalf("decoding mission event: %v", err)
		}
		seen[me.Mission]++
	}
	for i := 0; i < spec.Runs; i++ {
		if seen[i] != 1 {
			t.Errorf("mission %d streamed %d times, want 1", i, seen[i])
		}
	}
}

// TestSubmitValidation rejects malformed specs with 400s and keeps the good
// path at 202.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, bad := range []JobSpec{
		{},                                  // no fault target
		{Fault: "bogus"},                    // unknown family
		{Fault: "sensor,wind"},              // two targets = two cells
		{Fault: "sensor", World: "nowhere"}, // unknown world
		{Fault: "sensor", Severity: "low,high"},
		{Fault: "sensor", Detector: "magic"},
		{Fault: "wind:gust"},            // wind has no kinds
		{Fault: "sensor", Record: true}, // no -record-dir on the server
	} {
		body, _ := json.Marshal(bad)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// The spec check's refusals reach the client verbatim: the text
	// `mavfi matrix` prints for the same flags.
	for _, c := range []struct {
		job  JobSpec
		spec matrix.Spec
	}{
		{JobSpec{Fault: "sensor", World: "bogus"}, matrix.Spec{Worlds: []string{"bogus"}}},
		{JobSpec{Fault: "sensor", Detector: "bogus"}, matrix.Spec{Detectors: []string{"bogus"}}},
		{JobSpec{Fault: "sensor", NearFieldStride: -1}, matrix.Spec{NearFieldStride: -1}},
		{JobSpec{Fault: "sensor", MapSeed: "seed"}, matrix.Spec{MapSeed: "seed"}},
	} {
		want := c.spec.Check()
		body, _ := json.Marshal(c.job)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || want == nil || got.Error != want.Error() {
			t.Errorf("spec %+v: status %d error %q, want 400 %v", c.job, resp.StatusCode, got.Error, want)
		}
	}
	// Unknown JSON fields are rejected too (catches CLI/API drift).
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"fault":"sensor","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestEndpointsSmoke covers the non-job endpoints: healthz, metrics, list,
// and 404s.
func TestEndpointsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	if body, code := getBody(t, ts, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz: %d %q", code, body)
	}
	if _, code := getBody(t, ts, "/jobs/job-9999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	spec := testSpec()
	st, _ := postJob(t, ts, spec, true)
	if st.State != JobDone {
		t.Fatalf("job state %q", st.State)
	}

	list, code := getBody(t, ts, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var jobs []Status
	if err := json.Unmarshal([]byte(list), &jobs); err != nil || len(jobs) != 1 {
		t.Errorf("list = %s (err %v), want 1 job", list, err)
	}

	mtx, code := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{
		"mavfi_jobs_done_total 1",
		fmt.Sprintf("mavfi_missions_total %d", spec.Runs),
		`mavfi_mission_outcomes_total{outcome="success"}`,
		`mavfi_mission_outcomes_total{outcome="deadline-exceeded"} 0`,
		"mavfi_jobs_queued 0",
		"mavfi_jobs_running 0",
		"mavfi_missions_per_second",
	} {
		if !strings.Contains(mtx, want) {
			t.Errorf("metrics missing %q:\n%s", want, mtx)
		}
	}

	if body, code := getBody(t, ts, "/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline: %d", code)
	}
}
