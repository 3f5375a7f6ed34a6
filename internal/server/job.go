package server

import (
	"fmt"
	"sync"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/qof"
)

// JobSpec is the wire form of one campaign job (the POST /jobs body): one
// campaign-matrix cell. Every field maps one-to-one onto a `mavfi matrix`
// flag, which is what makes the served-equals-CLI byte-identity invariant
// well-defined: a job's cell CSV and summary CSV are byte-identical to
//
//	mavfi matrix -worlds WORLD -families FAULT -severities SEVERITY \
//	             -detectors DETECTOR -recoveries on|off -runs RUNS -seed SEED
//
// at any worker width.
type JobSpec struct {
	// World is the environment name (factory, farm, sparse, dense; default
	// sparse).
	World string `json:"world,omitempty"`
	// Fault is the fault target, "family[:kind]" (required): kernel, state,
	// sensor, actuator, wind, optionally restricted to one mechanism
	// (e.g. "sensor:ray_dropout").
	Fault string `json:"fault"`
	// Severity is one severity level: "low", "med", "high", or
	// "name=scale" (default "high").
	Severity string `json:"severity,omitempty"`
	// Detector is "none", "gad", or "aad" (default "none").
	Detector string `json:"detector,omitempty"`
	// Recovery enables recovery actions for detector-bearing jobs
	// (ignored — collapsed off — when Detector is "none").
	Recovery bool `json:"recovery,omitempty"`
	// Runs is the number of missions (default 4).
	Runs int `json:"runs,omitempty"`
	// Seed is the campaign seed the cell and mission seeds derive from.
	Seed int64 `json:"seed,omitempty"`
	// MaxMissionS overrides the mission time budget (0 = pipeline default).
	MaxMissionS float64 `json:"max_mission_s,omitempty"`
	// TrainEnvs is the training-environment count for gad/aad (default 12).
	TrainEnvs int `json:"train_envs,omitempty"`
	// MapSeed selects the golden-map mode: "off" (default, exact), "seed"
	// (approximate mode: missions fork the world's golden map, built on
	// first use into the server's warm assets), or "memo" ("seed" plus
	// saturated-evidence memoization).
	MapSeed string `json:"map_seed,omitempty"`
	// NearFieldStride, when > 1, enables near-field ray subsampling
	// (approximate mode).
	NearFieldStride int `json:"near_field_stride,omitempty"`
	// Record persists every mission as a replayable recording under the
	// server's -record-dir; recorded jobs survive server restarts.
	Record bool `json:"record,omitempty"`
}

// normalized fills the spec's defaults (mirroring the matrix CLI flag
// defaults) so the persisted job.json pins the effective configuration.
func (js JobSpec) normalized() JobSpec {
	if js.World == "" {
		js.World = "sparse"
	}
	if js.Severity == "" {
		js.Severity = "high"
	}
	if js.Detector == "" {
		js.Detector = "none"
	}
	if js.Runs <= 0 {
		js.Runs = 4
	}
	if js.TrainEnvs <= 0 {
		js.TrainEnvs = 12
	}
	if js.MapSeed == "" {
		js.MapSeed = "off"
	}
	return js
}

// matrixSpec converts the job into its single-cell matrix specification —
// the exact Spec the equivalent CLI invocation builds, which is the shared
// code path the byte-identity invariant rests on.
func (js JobSpec) matrixSpec() (matrix.Spec, error) {
	js = js.normalized()
	if _, err := matrix.World(js.World); err != nil {
		return matrix.Spec{}, err
	}
	if js.Fault == "" {
		return matrix.Spec{}, fmt.Errorf("server: job needs a fault target (family[:kind])")
	}
	targets, err := matrix.ParseTargets(js.Fault)
	if err != nil {
		return matrix.Spec{}, err
	}
	if len(targets) != 1 {
		return matrix.Spec{}, fmt.Errorf("server: a job is one cell; got %d fault targets", len(targets))
	}
	sevs, err := matrix.ParseSeverities(js.Severity)
	if err != nil {
		return matrix.Spec{}, err
	}
	if len(sevs) != 1 {
		return matrix.Spec{}, fmt.Errorf("server: a job is one cell; got %d severities", len(sevs))
	}
	switch js.Detector {
	case "none", "gad", "aad":
	default:
		return matrix.Spec{}, fmt.Errorf("server: unknown detector %q (have none, gad, aad)", js.Detector)
	}
	switch js.MapSeed {
	case "off", "seed", "memo":
	default:
		return matrix.Spec{}, fmt.Errorf("server: unknown map-seed mode %q (have off, seed, memo)", js.MapSeed)
	}
	if js.NearFieldStride < 0 {
		return matrix.Spec{}, fmt.Errorf("server: negative near-field stride %d", js.NearFieldStride)
	}
	return matrix.Spec{
		Worlds:          []string{js.World},
		Targets:         targets,
		Severities:      sevs,
		Detectors:       []string{js.Detector},
		Recoveries:      []bool{js.Recovery},
		Runs:            js.Runs,
		Seed:            js.Seed,
		MaxMissionS:     js.MaxMissionS,
		TrainEnvs:       js.TrainEnvs,
		MapSeed:         js.MapSeed,
		NearFieldStride: js.NearFieldStride,
	}, nil
}

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle states. Queued jobs wait in the FIFO queue; running jobs own
// the worker pool; done/failed/canceled are terminal; interrupted marks a
// recorded job recovered from a restart with missing missions (resubmit to
// re-run it).
const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobCanceled    JobState = "canceled"
	JobInterrupted JobState = "interrupted"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCanceled, JobInterrupted:
		return true
	}
	return false
}

// MissionEvent is one streamed per-mission result: the JSON the SSE stream
// carries and the status endpoint's mission-ordered result list. Fields
// mirror the cell CSV columns.
type MissionEvent struct {
	// Mission is the mission index within the job.
	Mission int `json:"mission"`
	// Seed is the mission's standalone pipeline seed.
	Seed int64 `json:"seed"`
	// Outcome is the qof outcome name.
	Outcome string `json:"outcome"`
	// FlightTimeS, EnergyJ, DistanceM are the headline QoF metrics.
	FlightTimeS float64 `json:"flight_s"`
	EnergyJ     float64 `json:"energy_j"`
	DistanceM   float64 `json:"distance_m"`
	// Alarms and Recomputes count detector activity.
	Alarms     int `json:"alarms"`
	Recomputes int `json:"recomputes"`
	// InjectedAtS and FirstAlarmS are the fault-response timestamps
	// (0 = never).
	InjectedAtS float64 `json:"injected_at_s"`
	FirstAlarmS float64 `json:"first_alarm_s"`
}

// newMissionEvent flattens one mission result for streaming.
func newMissionEvent(cell matrix.Cell, j int, m qof.Metrics) MissionEvent {
	return MissionEvent{
		Mission:     j,
		Seed:        cell.MissionSeed(j),
		Outcome:     m.Outcome.String(),
		FlightTimeS: m.FlightTimeS,
		EnergyJ:     m.EnergyJ,
		DistanceM:   m.DistanceM,
		Alarms:      m.Alarms,
		Recomputes:  m.Recomputes,
		InjectedAtS: m.InjectedAtS,
		FirstAlarmS: m.FirstAlarmS,
	}
}

// Job is one accepted campaign job.
type Job struct {
	// ID is the server-assigned identifier ("job-0001").
	ID string
	// Spec is the normalized submission.
	Spec JobSpec
	// Cell is the job's matrix cell (identity, seed, CSV naming).
	Cell matrix.Cell

	// recordDir is the job's recording directory ("" = unrecorded). It is
	// set by newJob and never written again, so the executor reads it
	// without j.mu.
	recordDir string

	mu        sync.Mutex
	state     JobState
	err       string
	events    []MissionEvent // completion order
	subs      map[chan MissionEvent]struct{}
	result    *matrix.Result // single-cell result, set on done
	recovered bool
	cancelled bool          // cancellation was requested
	cancel    func()        // cancels the running job's context
	finished  chan struct{} // closed when the state turns terminal
}

// newJob builds a queued job.
func newJob(id string, spec JobSpec, cell matrix.Cell, recordDir string) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		Cell:      cell,
		recordDir: recordDir,
		state:     JobQueued,
		subs:      make(map[chan MissionEvent]struct{}),
		finished:  make(chan struct{}),
	}
}

// publish appends one mission event and fans it out to subscribers. A
// subscriber's buffer is sized for the whole job, so the non-blocking send
// only drops events for a pathologically slow reader — which still receives
// the authoritative mission-ordered list with the terminal status.
func (j *Job) publish(ev MissionEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers a live event channel and returns the events published
// so far; the snapshot and registration are atomic, so the subscriber sees
// every event exactly once (history first, then live).
func (j *Job) subscribe() (history []MissionEvent, ch chan MissionEvent, unsub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append(history, j.events...)
	ch = make(chan MissionEvent, j.Spec.Runs+4)
	j.subs[ch] = struct{}{}
	unsub = func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
	return history, ch, unsub
}

// finish moves the job to a terminal state (once; later calls are ignored)
// and wakes every waiter.
func (j *Job) finish(state JobState, err string, result *matrix.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state = state
	j.err = err
	j.result = result
	close(j.finished)
}

// Status is the job's wire status (GET /jobs/{id} and the submit response).
type Status struct {
	// ID and State identify the job and its lifecycle position.
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Cell is the job's canonical matrix-cell name; CellSeed its derived
	// seed.
	Cell     string `json:"cell"`
	CellSeed int64  `json:"cell_seed"`
	// Spec is the normalized submission.
	Spec JobSpec `json:"spec"`
	// Done and Total count completed missions.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error is the failure reason for failed jobs.
	Error string `json:"error,omitempty"`
	// Recovered marks a job rebuilt from recordings after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// Missions is the mission-ordered result list, present once terminal.
	Missions []MissionEvent `json:"missions,omitempty"`
}

// status snapshots the job.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		State:     j.state,
		Cell:      j.Cell.Name(),
		CellSeed:  j.Cell.Seed,
		Spec:      j.Spec,
		Done:      len(j.events),
		Total:     j.Spec.Runs,
		Error:     j.err,
		Recovered: j.recovered,
	}
	if j.state.terminal() {
		st.Missions = j.orderedEventsLocked()
	}
	return st
}

// orderedEventsLocked returns the mission-ordered event list: from the
// assembled campaign when a result exists (the authoritative order), else by
// sorting the completion-order stream by mission index.
func (j *Job) orderedEventsLocked() []MissionEvent {
	if j.result != nil && len(j.result.Cells) == 1 {
		cr := &j.result.Cells[0]
		out := make([]MissionEvent, 0, len(cr.Campaign.Results))
		for i, m := range cr.Campaign.Results {
			out = append(out, newMissionEvent(cr.Cell, i, m))
		}
		return out
	}
	out := append([]MissionEvent(nil), j.events...)
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Mission < out[k-1].Mission; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}
