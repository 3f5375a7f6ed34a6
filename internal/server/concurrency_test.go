package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSubmittersShareWarmWorld hammers one server from several
// goroutines (run under -race in CI): every submitter uses the same world,
// so all jobs after the first hit the warm cache, and identical specs must
// produce identical mission results no matter how submissions interleave.
func TestConcurrentSubmittersShareWarmWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	const n = 6
	s, err := New(Config{Queue: n, Workers: 2, WarmWorlds: []string{"sparse"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(testSpec())
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			<-j.finished
			jobs[i] = j
		}(i)
	}
	wg.Wait()

	var ref []MissionEvent
	for i, j := range jobs {
		if j == nil {
			continue
		}
		st := j.status()
		if st.State != JobDone {
			t.Fatalf("job %d state %q (error: %s)", i, st.State, st.Error)
		}
		for k, ev := range st.Missions {
			if ev.Mission != k {
				t.Fatalf("job %d: mission %d at position %d", i, ev.Mission, k)
			}
		}
		if ref == nil {
			ref = st.Missions
			continue
		}
		if !reflect.DeepEqual(st.Missions, ref) {
			t.Errorf("job %d results differ from job 0 despite identical spec", i)
		}
	}
}

// TestQueueFullAndCancellation drives the backpressure and cancellation
// paths: two long jobs hold both executors, the bounded queue fills, the
// next submission gets 429, and queued and running jobs cancel cleanly.
func TestQueueFullAndCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	s, ts := newTestServer(t, Config{Queue: 1, Workers: 1})

	// Two big jobs to hold both executors; their mission counts only bound
	// how long they could run — cancellation cuts them short. On the one
	// slot they take turns: the second job flies as soon as the first one's
	// current mission lands.
	long := testSpec()
	long.Runs = 500
	var running []string
	for k := 0; k < executors; k++ {
		st, code := postJob(t, ts, long, false)
		if code != http.StatusAccepted {
			t.Fatalf("submit long job %d: status %d", k, code)
		}
		waitState(t, s, st.ID, JobRunning)
		running = append(running, st.ID)
	}
	for _, id := range running {
		waitFor(t, id+" flies a mission", func() bool {
			j, _ := s.Job(id)
			return j.status().Done > 0
		})
	}

	queued, code := postJob(t, ts, testSpec(), false)
	if code != http.StatusAccepted {
		t.Fatalf("submit queued job: status %d", code)
	}
	if st, _ := getStatus(t, ts, queued.ID); st.State != JobQueued {
		t.Fatalf("third job is %q with both executors busy, want queued", st.State)
	}
	if _, code := postJob(t, ts, testSpec(), false); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d, want 429", code)
	}

	// Cancel the queued job first (it has no context yet), then the running
	// ones (their campaign contexts are canceled mid-flight).
	for _, id := range append([]string{queued.ID}, running...) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
		}
	}
	for _, id := range append([]string{queued.ID}, running...) {
		waitState(t, s, id, JobCanceled)
	}

	// Canceling a finished job conflicts.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel: status %d, want 409", resp.StatusCode)
	}

	// The server stays serviceable afterwards.
	st, code := postJob(t, ts, testSpec(), true)
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("post-cancel job: status %d state %q", code, st.State)
	}

	body, _ := getBody(t, ts, "/metrics")
	if !strings.Contains(body, "mavfi_jobs_rejected_total 1") ||
		!strings.Contains(body, "mavfi_jobs_canceled_total 3") {
		t.Errorf("metrics missing rejection/cancellation counts:\n%s", body)
	}
}

// waitState polls the job until it reaches state (or fails the test after a
// generous deadline — state transitions here are driven by millisecond-scale
// missions).
func waitState(t *testing.T, s *Server, id string, state JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		j.mu.Lock()
		cur := j.state
		j.mu.Unlock()
		if cur == state {
			return
		}
		if cur.terminal() && state != cur {
			t.Fatalf("job %s reached terminal state %q while waiting for %q", id, cur, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, state)
}

// TestStatusJSONRoundTrips pins the wire shape: a status marshals and
// unmarshals without losing fields (guards the CI smoke job's jq paths).
func TestStatusJSONRoundTrips(t *testing.T) {
	spec, _, err := testSpec().Spec()
	if err != nil {
		t.Fatal(err)
	}
	st := Status{ID: "job-0001", State: JobDone, Cell: "sparse-sensor-high-none", CellSeed: 7,
		Spec: spec, Done: 3, Total: 3,
		Missions: []MissionEvent{{Mission: 0, Seed: 99, Outcome: "success", FlightTimeS: 1.5}}}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Status
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Errorf("status round-trip mismatch:\n%+v\n%+v", st, back)
	}
}
