package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mavfi/internal/campaign/matrix"
)

// holdSlots takes n of the server's mission slots, so admitted jobs wait
// at their first mission until the returned release gives them back.
func holdSlots(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	for k := 0; k < n; k++ {
		if err := s.slots.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for k := 0; k < n; k++ {
			s.slots.Release()
		}
	}
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// goroutinesIn counts the goroutines whose stack holds any of frames.
func goroutinesIn(frames ...string) int {
	buf := make([]byte, 4<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		for _, f := range frames {
			if strings.Contains(g, f) {
				n++
				break
			}
		}
	}
	return n
}

// jobFrames are the frames of every goroutine a job or an executor runs.
var jobFrames = []string{"server.(*Server).executor(", "server.(*Server).runJob(", "campaign.(*Runner).forEach"}

// waitNoJobGoroutines fails the test unless every executor, job and
// campaign-worker goroutine exits.
func waitNoJobGoroutines(t *testing.T) {
	t.Helper()
	waitFor(t, "no job goroutine remains", func() bool { return goroutinesIn(jobFrames...) == 0 })
}

// TestOverlappingJobsMatchCLI submits two jobs back to back, so both are
// admitted and share the slot pool. A sampler of the goroutines inside
// pipeline.RunMission must never see more missions flying than the pool
// has slots, and the CSVs must still equal the CLI's bytes at every width.
// At one and two workers the second job's workers queue for slots before
// the first job's second round of missions, so from then on the two jobs
// take turns, and a client must see the second job's first mission while
// the first job still has most of its missions to fly.
func TestOverlappingJobsMatchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	first := testSpec()
	first.Runs = 24
	second := testSpec()
	second.Fault, second.Seed = "wind", 7
	specs := []JobSpec{first, second}
	var refCell, refSummary [2]string
	for k, spec := range specs {
		mspec, err := spec.matrixSpec()
		if err != nil {
			t.Fatal(err)
		}
		mspec.Workers = 3
		ref, err := matrix.Run(context.Background(), mspec)
		if err != nil {
			t.Fatal(err)
		}
		refCell[k], refSummary[k] = ref.Cells[0].CSV(), ref.SummaryCSV()
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: workers})
			var high atomic.Int64
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				for {
					select {
					case <-stop:
						return
					case <-time.After(time.Millisecond):
						high.Store(max(high.Load(), int64(goroutinesIn("pipeline.RunMission("))))
					}
				}
			}()
			var ids [2]string
			for k, spec := range specs {
				st, code := postJob(t, ts, spec, false)
				if code != http.StatusAccepted {
					t.Fatalf("submit job %d: status %d", k, code)
				}
				ids[k] = st.ID
			}
			if workers <= 2 {
				resp, err := http.Get(ts.URL + "/jobs/" + ids[1] + "/stream")
				if err != nil {
					t.Fatal(err)
				}
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() && sc.Text() != "event: mission" {
					if sc.Text() == "event: done" {
						t.Fatal("second job ended without a mission event")
					}
				}
				resp.Body.Close()
				if st, _ := getStatus(t, ts, ids[0]); st.State != JobRunning {
					t.Errorf("first job is %q at the second job's first mission event, want running", st.State)
				}
			}
			for _, id := range ids {
				waitState(t, s, id, JobDone)
			}
			if n := high.Load(); n > int64(workers) {
				t.Errorf("%d missions flew at once on %d slots", n, workers)
			}
			for k, id := range ids {
				if cell, _ := getBody(t, ts, "/jobs/"+id+"/cell.csv"); cell != refCell[k] {
					t.Errorf("job %d cell CSV differs from CLI bytes:\nserved:\n%s\ncli:\n%s", k, cell, refCell[k])
				}
				if summary, _ := getBody(t, ts, "/jobs/"+id+"/summary.csv"); summary != refSummary[k] {
					t.Errorf("job %d summary CSV differs from CLI bytes:\nserved:\n%s\ncli:\n%s", k, summary, refSummary[k])
				}
			}
		})
	}
}

// TestCancelJobWaitingForSlot: with every slot held, both admitted jobs
// wait at their first mission. A DELETE must end the first as canceled
// with its workers gone, and Close must do the same for the second and
// stop both executors.
func TestCancelJobWaitingForSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	s, ts := newTestServer(t, Config{Workers: 2})
	release := holdSlots(t, s, 2)
	defer release()
	waiting := func() int { return goroutinesIn("campaign.(*Slots).Acquire(") }
	var jobs []*Job
	for k := 0; k < executors; k++ {
		j, err := s.Submit(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, j.ID, JobRunning)
		jobs = append(jobs, j)
		waitFor(t, fmt.Sprintf("job %d's two workers wait for a slot", k), func() bool { return waiting() == 2*(k+1) })
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+jobs[0].ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	waitState(t, s, jobs[0].ID, JobCanceled)
	if st := jobs[0].status(); st.Done != 0 {
		t.Errorf("canceled job flew %d missions without a slot", st.Done)
	}
	waitFor(t, "only the second job still waits", func() bool {
		return waiting() == 2 && goroutinesIn("server.(*Server).runJob(") == 1
	})

	s.Close()
	if st := jobs[1].status(); st.State != JobCanceled {
		t.Errorf("job waiting for a slot at Close is %q, want canceled", st.State)
	}
	waitNoJobGoroutines(t)
}

// TestBusyTimeCountsOverlapOnce runs two jobs that overlap from start to
// end: the running gauge must reach 2, and the busy clock behind
// mavfi_missions_per_second must count their shared seconds once.
func TestBusyTimeCountsOverlapOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	release := holdSlots(t, s, 1)
	start := time.Now()
	var jobs []*Job
	for k := 0; k < executors; k++ {
		spec := testSpec()
		spec.Seed += int64(k)
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, j.ID, JobRunning)
		jobs = append(jobs, j)
	}
	if body, _ := getBody(t, ts, "/metrics"); !strings.Contains(body, "mavfi_jobs_running 2\n") {
		t.Errorf("metrics with two admitted jobs:\n%s", body)
	}
	release()
	for _, j := range jobs {
		<-j.finished
	}
	wall := time.Since(start)
	if n := s.metrics.jobsRunning.Load(); n != 0 {
		t.Fatalf("jobsRunning = %d after both jobs finished", n)
	}
	if busy := s.metrics.busyTime(); busy > wall || busy < wall/2 {
		t.Errorf("busy time %v for two overlapping jobs in %v of wall time", busy, wall)
	}
}
