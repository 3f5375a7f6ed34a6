package server

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mavfi/internal/campaign/matrix"
)

// TestSeededJobMatchesCLIAndPersistsSeed extends the served-equals-CLI gate
// to approximate mode: a map_seed=seed job served over HTTP by a recording
// server must produce the CSV bytes the equivalent seeded CLI matrix run
// produces.
func TestSeededJobMatchesCLIAndPersistsSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	spec := testSpec()
	spec.MapSeed = "seed"
	spec.NearFieldStride = 2
	mspec, err := spec.matrixSpec()
	if err != nil {
		t.Fatal(err)
	}
	mspec.Workers = 2
	ref, err := matrix.Run(context.Background(), mspec)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, RecordDir: dir})
	st, code := postJob(t, ts, spec, true)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if st.State != JobDone {
		t.Fatalf("job state %q, want done (error: %s)", st.State, st.Error)
	}
	cell, code := getBody(t, ts, "/jobs/"+st.ID+"/cell.csv")
	if code != http.StatusOK {
		t.Fatalf("cell.csv: status %d", code)
	}
	if cell != ref.Cells[0].CSV() {
		t.Errorf("seeded served cell CSV differs from CLI bytes:\nserved:\n%s\ncli:\n%s", cell, ref.Cells[0].CSV())
	}
}

// TestRecordDirFromOlderBuildBoots pins a record dir written by an older
// build, which cached golden maps in a mapseeds directory beside the jobs.
// That directory has no job.json, so recovery skips it without counting a
// failure; the recorded job beside it recovers; and a memo job builds its
// golden map in memory and finishes.
func TestRecordDirFromOlderBuildBoots(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.Runs = 1
	spec.Record = true
	s1, err := New(Config{Workers: 1, RecordDir: dir})
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
		t.Fatalf("recorded job ended %q (error: %s)", st.State, st.Error)
	}
	old := filepath.Join(dir, "mapseeds")
	if err := os.Mkdir(old, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "sparse.mapseed"), []byte("MAVFISEED\x02 from an older build"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts := newTestServer(t, Config{Workers: 1, RecordDir: dir})
	rec, ok := s2.Job(j.ID)
	if !ok {
		t.Fatal("recorded job not recovered")
	}
	if st := rec.status(); st.State != JobDone || !st.Recovered {
		t.Fatalf("recovered job %q recovered=%v, want done/true (error: %s)", st.State, st.Recovered, st.Error)
	}
	memo := testSpec()
	memo.Runs = 1
	memo.MapSeed = "memo"
	st, code := postJob(t, ts, memo, true)
	if code != http.StatusOK || st.State != JobDone {
		t.Fatalf("memo job: status %d state %q (error: %s)", code, st.State, st.Error)
	}
	metrics, _ := getBody(t, ts, "/metrics")
	for _, want := range []string{"mavfi_jobs_recovered_total 1\n", "mavfi_jobs_recover_failed_total 0\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestJobSpecRejectsBadMapSeed pins wire validation of the new fields.
func TestJobSpecRejectsBadMapSeed(t *testing.T) {
	bad := testSpec()
	bad.MapSeed = "warp"
	if _, err := bad.matrixSpec(); err == nil {
		t.Error("unknown map_seed accepted")
	}
	neg := testSpec()
	neg.NearFieldStride = -1
	if _, err := neg.matrixSpec(); err == nil {
		t.Error("negative near_field_stride accepted")
	}
	ok := testSpec()
	ok.MapSeed = "seed"
	ok.NearFieldStride = 4
	mspec, err := ok.matrixSpec()
	if err != nil {
		t.Fatalf("valid seeded spec rejected: %v", err)
	}
	if mspec.MapSeed != "seed" || mspec.NearFieldStride != 4 {
		t.Errorf("seeded fields not forwarded: %+v", mspec)
	}
	if def := (testSpec()).normalized(); def.MapSeed != "off" {
		t.Errorf("default map_seed = %q, want off", def.MapSeed)
	}
}
