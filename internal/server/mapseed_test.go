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
// to approximate mode: a map_seed=memo job, whose missions fork the world's
// golden-map seed, served over HTTP by a recording server must produce the
// CSV bytes the equivalent CLI matrix run produces.
func TestSeededJobMatchesCLIAndPersistsSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	spec := testSpec()
	spec.MapSeed = "memo"
	spec.NearFieldStride = 2
	_, mspec, err := spec.Spec()
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
		t.Errorf("memo served cell CSV differs from CLI bytes:\nserved:\n%s\ncli:\n%s", cell, ref.Cells[0].CSV())
	}
}

// TestRecordDirFromOlderBuildBoots pins a record dir written by an older
// build, which cached golden maps in a mapseeds directory beside the jobs
// and could record jobs in the retired map_seed=seed mode. The mapseeds
// directory has no job.json, so recovery skips it without counting a
// failure; the seed-mode job is refused, skipped and counted; the recorded
// job beside them recovers; and a memo job builds its golden map in memory
// and finishes.
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
	seeded := filepath.Join(dir, "job-0009")
	if err := os.Mkdir(seeded, 0o755); err != nil {
		t.Fatal(err)
	}
	man := `{"id":"job-0009","spec":{"world":"sparse","fault":"sensor","severity":"high","detector":"none","runs":1,"seed":42,"train_envs":12,"map_seed":"seed"}}`
	if err := os.WriteFile(filepath.Join(seeded, "job.json"), []byte(man), 0o644); err != nil {
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
	if _, ok := s2.Job("job-0009"); ok {
		t.Error("a map_seed=seed job was recovered")
	}
	for _, want := range []string{"mavfi_jobs_recovered_total 1\n", "mavfi_jobs_recover_failed_total 1\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestJobSpecRejectsBadMapSeed pins wire validation of the approximate-mode
// fields: an unknown or retired map_seed and a negative stride are refused,
// memo and a stride are forwarded, and map_seed defaults to off.
func TestJobSpecRejectsBadMapSeed(t *testing.T) {
	for _, mode := range []string{"warp", "seed"} {
		bad := testSpec()
		bad.MapSeed = mode
		if _, _, err := bad.Spec(); err == nil {
			t.Errorf("map_seed %q accepted", mode)
		}
	}
	neg := testSpec()
	neg.NearFieldStride = -1
	if _, _, err := neg.Spec(); err == nil {
		t.Error("negative near_field_stride accepted")
	}
	ok := testSpec()
	ok.MapSeed = "memo"
	ok.NearFieldStride = 4
	_, mspec, err := ok.Spec()
	if err != nil {
		t.Fatalf("valid memo spec rejected: %v", err)
	}
	if mspec.MapSeed != "memo" || mspec.NearFieldStride != 4 {
		t.Errorf("approximate-mode fields not forwarded: %+v", mspec)
	}
	if def, _, _ := testSpec().Spec(); def.MapSeed != "off" {
		t.Errorf("default map_seed = %q, want off", def.MapSeed)
	}
}
