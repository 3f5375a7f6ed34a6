package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mavfi/internal/qof"
)

// metrics is the server's counter set, rendered in Prometheus text
// exposition format by GET /metrics. Hand-rolled on atomics — the repo's
// no-new-dependencies rule precludes a client library, and the text format
// is simple enough that one renderer suffices.
type metrics struct {
	jobsQueued  atomic.Int64 // gauge: jobs waiting in the FIFO queue
	jobsRunning atomic.Int64 // gauge: jobs currently executing (0–2)

	jobsDone          atomic.Int64 // counters: terminal-state totals
	jobsFailed        atomic.Int64
	jobsCanceled      atomic.Int64
	jobsInterrupted   atomic.Int64 // queued jobs finished by a graceful drain
	jobsRejected      atomic.Int64 // queue-full 429s
	jobsRecovered     atomic.Int64 // jobs rebuilt from recordings at startup
	jobsRecoverFailed atomic.Int64 // corrupt job dirs skipped at startup

	missions atomic.Int64                  // completed missions across all jobs
	outcomes [qof.NumOutcomes]atomic.Int64 // per-outcome mission counters

	// busyMu guards the busy clock: wall time during which at least one
	// job runs. Two overlapping jobs count their shared seconds once.
	busyMu    sync.Mutex
	busy      time.Duration // closed busy stretches
	busySince time.Time     // start of the open stretch while jobsRunning > 0
}

// jobStarted and jobEnded bracket one job's execution: they move the
// running gauge and open or close a busy stretch when it leaves or returns
// to zero.
func (m *metrics) jobStarted() {
	m.busyMu.Lock()
	defer m.busyMu.Unlock()
	if m.jobsRunning.Add(1) == 1 {
		m.busySince = time.Now()
	}
}

func (m *metrics) jobEnded() {
	m.busyMu.Lock()
	defer m.busyMu.Unlock()
	if m.jobsRunning.Add(-1) == 0 {
		m.busy += time.Since(m.busySince)
	}
}

// busyTime is the wall time during which at least one job ran, including
// the stretch still open.
func (m *metrics) busyTime() time.Duration {
	m.busyMu.Lock()
	defer m.busyMu.Unlock()
	d := m.busy
	if m.jobsRunning.Load() > 0 {
		d += time.Since(m.busySince)
	}
	return d
}

// countMission records one finished mission.
func (m *metrics) countMission(out qof.Outcome) {
	m.missions.Add(1)
	if 0 <= int(out) && int(out) < len(m.outcomes) {
		m.outcomes[out].Add(1)
	}
}

// render emits the Prometheus text form. Every outcome label is emitted even
// at zero so scrapes see a stable series set from the first sample.
func (m *metrics) render() string {
	var b strings.Builder
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("mavfi_jobs_queued", "Jobs waiting in the FIFO queue.", m.jobsQueued.Load())
	gauge("mavfi_jobs_running", "Jobs currently executing (0-2).", m.jobsRunning.Load())
	counter("mavfi_jobs_done_total", "Jobs that completed successfully.", m.jobsDone.Load())
	counter("mavfi_jobs_failed_total", "Jobs that ended in an error.", m.jobsFailed.Load())
	counter("mavfi_jobs_canceled_total", "Jobs canceled by request.", m.jobsCanceled.Load())
	counter("mavfi_jobs_interrupted_total", "Queued jobs finished as interrupted by a graceful drain.", m.jobsInterrupted.Load())
	counter("mavfi_jobs_rejected_total", "Submissions rejected because the queue was full.", m.jobsRejected.Load())
	counter("mavfi_jobs_recovered_total", "Jobs rebuilt from recordings at startup.", m.jobsRecovered.Load())
	counter("mavfi_jobs_recover_failed_total", "Corrupt job directories skipped during startup recovery.", m.jobsRecoverFailed.Load())
	counter("mavfi_missions_total", "Missions completed across all jobs.", m.missions.Load())

	fmt.Fprintf(&b, "# HELP mavfi_mission_outcomes_total Missions by outcome.\n# TYPE mavfi_mission_outcomes_total counter\n")
	for out := qof.Outcome(0); int(out) < qof.NumOutcomes; out++ {
		fmt.Fprintf(&b, "mavfi_mission_outcomes_total{outcome=%q} %d\n", out.String(), m.outcomes[out].Load())
	}

	rate := 0.0
	if busy := m.busyTime().Seconds(); busy > 0 {
		rate = float64(m.missions.Load()) / busy
	}
	fmt.Fprintf(&b, "# HELP mavfi_missions_per_second Missions per second of wall time with at least one job running.\n# TYPE mavfi_missions_per_second gauge\nmavfi_missions_per_second %g\n", rate)
	return b.String()
}
