package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestDrainRejectsNewSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec()); err != errDraining {
		t.Fatalf("Submit during drain: %v, want errDraining", err)
	}
	if _, code := postJob(t, ts, testSpec(), false); code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP submit during drain: status %d, want 503", code)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestDrainFinishesRunningAndInterruptsQueued(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	s, ts := newTestServer(t, Config{Workers: 2})
	// With every slot held, both admitted jobs wait at their first mission,
	// so the later submissions are guaranteed to still be queued when the
	// drain begins.
	release := holdSlots(t, s, 2)
	var admitted, queued []*Job
	for k := 0; k < executors+2; k++ {
		j, err := s.Submit(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		if k < executors {
			waitState(t, s, j.ID, JobRunning)
			admitted = append(admitted, j)
		} else {
			queued = append(queued, j)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	<-s.drainc // from here on no executor takes a new job
	release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for _, j := range admitted {
		if st := j.status(); st.State != JobDone {
			t.Errorf("admitted job %s drained to %q, want done (error: %s)", j.ID, st.State, st.Error)
		}
	}
	for _, j := range queued {
		if st := j.status(); st.State != JobInterrupted {
			t.Errorf("queued job %s drained to %q, want interrupted", j.ID, st.State)
		}
	}
	if n := s.metrics.jobsInterrupted.Load(); n != 2 {
		t.Errorf("jobsInterrupted = %d, want 2", n)
	}
	waitNoJobGoroutines(t)
	// The drained server still serves status and artifacts read-only.
	for _, j := range admitted {
		if _, code := getBody(t, ts, "/jobs/"+j.ID+"/cell.csv"); code != http.StatusOK {
			t.Errorf("%s cell.csv after drain: status %d", j.ID, code)
		}
	}
}

func TestDrainNeverStrandsRacingSubmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	// Submissions racing a drain must either be rejected with errDraining
	// or reach a terminal state — never slip into the queue after Drain's
	// sweep and sit there forever with no consumer. Submit's authoritative
	// draining check and the sweep share s.mu, which is what this stresses
	// (especially under -race).
	spec := testSpec()
	spec.Runs = 1
	for iter := 0; iter < 4; iter++ {
		s, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu       sync.Mutex
			accepted []*Job
			wg       sync.WaitGroup
		)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j, err := s.Submit(spec)
					switch err {
					case nil:
						mu.Lock()
						accepted = append(accepted, j)
						mu.Unlock()
					case errQueueFull:
						time.Sleep(100 * time.Microsecond)
					default: // errDraining: the drain won the race
						return
					}
				}
			}()
		}
		time.Sleep(2 * time.Millisecond) // let some submissions land first
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		derr := s.Drain(ctx)
		cancel()
		wg.Wait()
		if derr != nil {
			t.Fatal(derr)
		}
		deadline := time.After(60 * time.Second)
		for _, j := range accepted {
			select {
			case <-j.finished:
			case <-deadline:
				t.Fatalf("iter %d: job %s stranded in state %q after drain", iter, j.ID, j.status().State)
			}
		}
		s.Close()
	}
}

func TestRecoverySkipsCorruptJobDirs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	dir := t.TempDir()
	spec := testSpec()
	spec.Record = true

	s1, err := New(Config{Workers: 2, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := s1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.finished
		ids = append(ids, j.ID)
	}
	s1.Close()

	// Job 1's manifest is torn mid-write (a crash without atomic rename
	// would leave exactly this); job 2's is replaced with garbage bytes.
	man := filepath.Join(dir, ids[0], "job.json")
	b, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(man, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ids[1], "job.json"), []byte("\x00not json\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A concurrent writer's temp file is lying around too; recovery and
	// record.ScanDir must both ignore it.
	if err := os.WriteFile(filepath.Join(dir, ids[2], "job.json.atomic-12345"), []byte("{\"partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The server must come up anyway: corrupt directories are skipped and
	// counted, the healthy job recovers fully.
	s2, err := New(Config{Workers: 2, RecordDir: dir})
	if err != nil {
		t.Fatalf("recovery failed on corrupt job dirs: %v", err)
	}
	ts := httptest.NewServer(s2.Handler())
	defer func() { ts.Close(); s2.Close() }()

	for _, id := range ids[:2] {
		if _, ok := s2.Job(id); ok {
			t.Errorf("corrupt job %s was recovered", id)
		}
	}
	st, ok := s2.Job(ids[2])
	if !ok {
		t.Fatal("healthy job not recovered")
	}
	if got := st.status(); got.State != JobDone || !got.Recovered {
		t.Errorf("healthy job state %q recovered=%v, want done/true", got.State, got.Recovered)
	}
	if n := s2.metrics.jobsRecoverFailed.Load(); n != 2 {
		t.Errorf("jobsRecoverFailed = %d, want 2", n)
	}
	if n := s2.metrics.jobsRecovered.Load(); n != 1 {
		t.Errorf("jobsRecovered = %d, want 1", n)
	}
}

func TestRecoverySkipsCorruptRecording(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	dir := t.TempDir()
	spec := testSpec()
	spec.Record = true

	s1, err := New(Config{Workers: 2, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.finished
	s1.Close()

	// Garbage where a recording's magic should be: ScanDir reports a hard
	// decode error (not the tolerated clean-truncation case), which used
	// to abort server startup entirely.
	rec := filepath.Join(dir, j.ID, "mission-00000.rec")
	if err := os.WriteFile(rec, []byte("\x00\x00garbage\x00"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Workers: 2, RecordDir: dir})
	if err != nil {
		t.Fatalf("recovery failed on a corrupt recording: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Job(j.ID); ok {
		t.Error("job with corrupt recording was recovered")
	}
	if n := s2.metrics.jobsRecoverFailed.Load(); n != 1 {
		t.Errorf("jobsRecoverFailed = %d, want 1", n)
	}
}
