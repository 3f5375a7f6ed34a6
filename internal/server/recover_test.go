package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mavfi/internal/record"
)

// TestRestartRecovery is the persistence contract end to end: a recorded job
// survives a server restart — same ID, same mission results, byte-identical
// CSV artifacts — rebuilt purely from the recordings (no re-simulation: the
// recording files are untouched by recovery), and new submissions resume the
// ID sequence past the recovered job.
func TestRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	dir := t.TempDir()
	spec := testSpec()
	spec.Record = true

	// First life: run and record the job.
	s1, err := New(Config{Workers: 2, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	before, code := postJob(t, ts1, spec, true)
	if code != http.StatusOK || before.State != JobDone {
		t.Fatalf("first life: status %d state %q (error: %s)", code, before.State, before.Error)
	}
	cellCSV, _ := getBody(t, ts1, "/jobs/"+before.ID+"/cell.csv")
	summaryCSV, _ := getBody(t, ts1, "/jobs/"+before.ID+"/summary.csv")
	ts1.Close()
	s1.Close()

	jobDir := filepath.Join(dir, before.ID)
	infos, err := record.ScanDir(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != spec.Runs {
		t.Fatalf("%d recordings on disk, want %d", len(infos), spec.Runs)
	}
	mtimes := recordingMTimes(t, jobDir)

	// Second life: recover from the same record dir.
	s2, err := New(Config{Workers: 2, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close() }()

	after, code := getStatus(t, ts2, before.ID)
	if code != http.StatusOK {
		t.Fatalf("recovered job: status %d", code)
	}
	if after.State != JobDone || !after.Recovered {
		t.Fatalf("recovered job state %q recovered=%v, want done/true (error: %s)",
			after.State, after.Recovered, after.Error)
	}
	if after.Cell != before.Cell || after.CellSeed != before.CellSeed {
		t.Errorf("recovered cell %s/%d, want %s/%d", after.Cell, after.CellSeed, before.Cell, before.CellSeed)
	}
	if !reflect.DeepEqual(after.Missions, before.Missions) {
		t.Errorf("recovered missions differ:\nbefore: %+v\nafter:  %+v", before.Missions, after.Missions)
	}
	if got, _ := getBody(t, ts2, "/jobs/"+before.ID+"/cell.csv"); got != cellCSV {
		t.Errorf("recovered cell CSV differs:\nbefore:\n%s\nafter:\n%s", cellCSV, got)
	}
	if got, _ := getBody(t, ts2, "/jobs/"+before.ID+"/summary.csv"); got != summaryCSV {
		t.Errorf("recovered summary CSV differs:\nbefore:\n%s\nafter:\n%s", summaryCSV, got)
	}
	if got := recordingMTimes(t, jobDir); !reflect.DeepEqual(got, mtimes) {
		t.Error("recovery touched the recording files (re-simulation or rewrite)")
	}

	// New submissions continue past the recovered ordinal.
	fresh, code := postJob(t, ts2, testSpec(), true)
	if code != http.StatusOK {
		t.Fatalf("post-recovery submit: status %d", code)
	}
	if fresh.ID == before.ID {
		t.Errorf("new job reused recovered ID %s", fresh.ID)
	}
	if fresh.ID != "job-0002" {
		t.Errorf("new job ID %s, want job-0002", fresh.ID)
	}
}

// TestRestartRecoveryInterrupted marks a recorded job whose recordings are
// incomplete as interrupted, keeping the missions that did finish visible.
func TestRestartRecoveryInterrupted(t *testing.T) {
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
	if st := j.status(); st.State != JobDone {
		t.Fatalf("job state %q (error: %s)", st.State, st.Error)
	}

	// Simulate a crash mid-job: one mission's recording vanishes.
	if err := os.Remove(record.MissionPath(filepath.Join(dir, j.ID), 1)); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Workers: 2, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, ok := s2.Job(j.ID)
	if !ok {
		t.Fatal("interrupted job not recovered")
	}
	st := rec.status()
	if st.State != JobInterrupted {
		t.Fatalf("state %q, want interrupted (error: %s)", st.State, st.Error)
	}
	if st.Done != spec.Runs-1 {
		t.Errorf("%d recovered missions, want %d", st.Done, spec.Runs-1)
	}
	for _, ev := range st.Missions {
		if ev.Mission == 1 {
			t.Errorf("mission 1 recovered despite its recording being gone")
		}
	}
	// Interrupted jobs serve no CSV.
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	if _, code := getBody(t, ts, "/jobs/"+j.ID+"/cell.csv"); code != http.StatusNotFound {
		t.Errorf("interrupted cell.csv: status %d, want 404", code)
	}
}

// recordingMTimes snapshots every recording's mtime (sorted by name).
func recordingMTimes(t *testing.T, dir string) map[string]time.Time {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]time.Time)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.ModTime()
	}
	return out
}

// TestUnwritableManifestRunsUnrecorded pins what a recorded job does when its
// manifest cannot be written: it runs unrecorded and ends done, never failed.
// A regular file squats on each job's record directory, so the manifest's
// MkdirAll fails. Each job is submitted to an idle executor, which dequeues
// it at once: the window in which the executor could see a record directory
// the submission is about to drop.
func TestUnwritableManifestRunsUnrecorded(t *testing.T) {
	const jobs = 10
	dir := t.TempDir()
	for i := 1; i <= jobs; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("job-%04d", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := newTestServer(t, Config{Workers: 1, RecordDir: dir})
	spec := testSpec()
	spec.Runs = 1
	spec.Record = true
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.finished
		if st := j.status(); st.State != JobDone || st.Error != "" {
			t.Fatalf("%s ended %q (error %q), want done with no error", j.ID, st.State, st.Error)
		}
	}
}
