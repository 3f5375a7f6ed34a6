package server

import (
	"sync"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/qof"
)

// JobSpec is the wire form of one campaign job (the POST /jobs body and
// the job.json spec): one campaign-matrix cell in the single-cell form
// matrix.CellSpec, which the dispatcher's work units carry too.
type JobSpec = matrix.CellSpec

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

	// run is the checked one-cell matrix.Spec the job flies; set by newJob
	// and never written again.
	run matrix.Spec

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

// newJob builds a queued job from the two halves JobSpec.Spec returns.
func newJob(id string, spec JobSpec, run matrix.Spec, recordDir string) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		Cell:      matrix.Cells(run)[0],
		run:       run,
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
