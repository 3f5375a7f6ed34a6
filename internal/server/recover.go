package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
	"mavfi/internal/qof"
	"mavfi/internal/record"
)

// recoverJobs rebuilds the server's view of recorded jobs from RecordDir.
// Each job directory carries a job.json manifest plus the mission recordings
// matrix.RunOn wrote through record.RunCampaign. A job whose every
// mission has a complete (footer-bearing) recording is restored as done —
// its results come straight from the recording footers, with no
// re-simulation, and its CSV endpoints serve the same bytes as before the
// restart (ResultRecord carries every CSV field and JSON float64s round-trip
// exactly). A job with missing or incomplete recordings is restored as
// interrupted: its completed missions are listed, and a client resubmits the
// same spec to re-run it (determinism makes the re-run reproduce the
// recorded missions bit-for-bit).
func (s *Server) recoverJobs() error {
	entries, err := os.ReadDir(s.cfg.RecordDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: scanning record dir: %w", err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	for _, name := range dirs {
		dir := filepath.Join(s.cfg.RecordDir, name)
		j, err := s.recoverJob(dir)
		if err != nil {
			// One corrupt job directory (a manifest damaged on disk, an
			// unreadable recording) must not take the whole server down
			// with it: recovery exists to survive crashes, so it cannot
			// itself be brittle. Skip the directory and count it — the
			// healthy jobs still recover, and the metric surfaces the rot.
			s.metrics.jobsRecoverFailed.Add(1)
			fmt.Fprintf(os.Stderr, "server: skipping unrecoverable %s: %v\n", dir, err)
			continue
		}
		if j == nil {
			continue // not a job directory
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.metrics.jobsRecovered.Add(1)
		if n := idOrdinal(j.ID); n > s.next {
			s.next = n
		}
	}
	return nil
}

// idOrdinal parses the numeric suffix of a "job-%04d" ID (0 if malformed).
func idOrdinal(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// recoverJob rebuilds one job from its directory, or returns (nil, nil) for
// directories without a manifest.
func (s *Server) recoverJob(dir string) (*Job, error) {
	b, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("decoding job.json: %w", err)
	}
	spec, mspec, err := man.Spec.Spec()
	if err != nil {
		return nil, fmt.Errorf("manifest spec: %w", err)
	}

	infos, err := record.ScanDir(dir)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]record.Info, len(infos))
	for _, info := range infos {
		byPath[info.Path] = info
	}

	j := newJob(man.ID, spec, mspec, dir)
	j.recovered = true
	cell := j.Cell

	results := make([]qof.Metrics, spec.Runs)
	plans := make([]faultinject.FaultPlan, spec.Runs)
	complete := true
	for i := 0; i < spec.Runs; i++ {
		info, ok := byPath[record.MissionPath(dir, i)]
		if !ok || !info.Complete {
			complete = false
			continue
		}
		results[i] = info.Footer.Result.Metrics()
		plans[i] = faultinject.FaultPlan{
			Kernel:   info.Header.KernelFault,
			State:    info.Header.StateFault,
			Sensor:   info.Header.SensorFault,
			Actuator: info.Header.ActuatorFault,
			Wind:     info.Header.WindFault,
		}
		j.events = append(j.events, newMissionEvent(cell, i, results[i]))
	}
	if !complete {
		j.finish(JobInterrupted,
			fmt.Sprintf("recovered with %d/%d recorded missions; resubmit to re-run", len(j.events), spec.Runs), nil)
		return j, nil
	}
	res := &matrix.Result{
		Spec: mspec,
		Cells: []matrix.CellResult{{
			Cell:     cell,
			Campaign: &qof.Campaign{Name: cell.Name(), Results: results},
			Plans:    plans,
		}},
	}
	j.finish(JobDone, "", res)
	return j, nil
}
