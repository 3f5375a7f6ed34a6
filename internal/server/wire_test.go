package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fullSpec sets every JobSpec field.
var fullSpec = JobSpec{
	World: "dense", Fault: "sensor:ray_dropout", Severity: "x=0.45", Detector: "aad", Recovery: true,
	Runs: 2, Seed: -7, MaxMissionS: 33.5, TrainEnvs: 3, MapSeed: "memo", NearFieldStride: 2, Record: true,
}

// fullManifest is the job.json an earlier build wrote for fullSpec.
const fullManifest = `{
  "id": "job-0003",
  "spec": {
    "world": "dense",
    "fault": "sensor:ray_dropout",
    "severity": "x=0.45",
    "detector": "aad",
    "recovery": true,
    "runs": 2,
    "seed": -7,
    "max_mission_s": 33.5,
    "train_envs": 3,
    "map_seed": "memo",
    "near_field_stride": 2,
    "record": true
  }
}`

// TestWireBytesPinned pins the JSON of a job spec (the POST /jobs body), of
// a normalized minimal spec, of a job status (GET /jobs/{id}) and of a
// job.json manifest to the bytes earlier builds wrote, so clients and
// record dirs of those builds keep working.
func TestWireBytesPinned(t *testing.T) {
	norm, _, err := JobSpec{Fault: "wind"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	st := Status{ID: "job-0001", State: JobDone, Cell: "dense-sensor:ray_dropout-x-aad-rec", CellSeed: 7,
		Spec: fullSpec, Done: 2, Total: 2, Error: "recording incomplete: x", Recovered: true,
		Missions: []MissionEvent{{Mission: 1, Seed: 99, Outcome: "success", FlightTimeS: 1.5, EnergyJ: 2.25, DistanceM: 3.125,
			Alarms: 4, Recomputes: 5, InjectedAtS: 6.5, FirstAlarmS: 7.75}}}
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"full spec", fullSpec, `{"world":"dense","fault":"sensor:ray_dropout","severity":"x=0.45","detector":"aad","recovery":true,"runs":2,"seed":-7,"max_mission_s":33.5,"train_envs":3,"map_seed":"memo","near_field_stride":2,"record":true}`},
		{"minimal spec", JobSpec{Fault: "wind"}, `{"fault":"wind"}`},
		{"normalized spec", norm, `{"world":"sparse","fault":"wind","severity":"high","detector":"none","runs":4,"train_envs":12,"map_seed":"off"}`},
		{"status", st, `{"id":"job-0001","state":"done","cell":"dense-sensor:ray_dropout-x-aad-rec","cell_seed":7,"spec":{"world":"dense","fault":"sensor:ray_dropout","severity":"x=0.45","detector":"aad","recovery":true,"runs":2,"seed":-7,"max_mission_s":33.5,"train_envs":3,"map_seed":"memo","near_field_stride":2,"record":true},"done":2,"total":2,"error":"recording incomplete: x","recovered":true,"missions":[{"mission":1,"seed":99,"outcome":"success","flight_s":1.5,"energy_j":2.25,"distance_m":3.125,"alarms":4,"recomputes":5,"injected_at_s":6.5,"first_alarm_s":7.75}]}`},
	} {
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, b, c.want)
		}
	}
	b, err := json.MarshalIndent(manifest{ID: "job-0003", Spec: fullSpec}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != fullManifest {
		t.Errorf("manifest:\n got %s\nwant %s", b, fullManifest)
	}
}

// TestPinnedManifestRecovers: a job.json that sets every field, as an
// earlier build wrote it, decodes and its job recovers with the spec and
// cell it was submitted with (interrupted, since no mission was recorded).
func TestPinnedManifestRecovers(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "job-0003"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-0003", "job.json"), []byte(fullManifest+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, RecordDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, ok := s.Job("job-0003")
	if !ok {
		t.Fatalf("job not recovered (%d recoveries failed)", s.metrics.jobsRecoverFailed.Load())
	}
	st := j.status()
	if st.Spec != fullSpec || st.Cell != "dense-sensor:ray_dropout-x-aad-rec" || !st.Recovered || st.State != JobInterrupted {
		t.Errorf("recovered %+v", st)
	}
}
