// Package server implements the mavfi campaign service: a long-running HTTP
// server that accepts campaign jobs, executes them behind a bounded FIFO
// queue, streams per-mission results as they complete, and serves the
// finished cell in the exact CSV schema the `mavfi matrix` CLI emits.
//
// Two executors drain the queue, so at most two jobs are admitted at once,
// in submission order. Both fly their missions on one shared pool of
// Config.Workers mission slots (campaign.Slots): a job running alone uses
// every slot, and while one job's last missions, calibration flight or
// CSV epilogue leave a core idle, the other job's missions take it. The
// two never fly more than Config.Workers missions at once.
//
// The service adds no simulation code of its own. A job is a single-cell
// matrix.Spec executed by matrix.RunOn against a process-lifetime warm-asset
// cache — literally the code path the CLI runs — so a served job's mission
// results and CSV artifacts are byte-identical to the equivalent CLI
// invocation at any worker width. That determinism contract is what the
// server's test harness (and the CI server-smoke job) enforce.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mavfi/internal/atomicfile"
	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/qof"
)

// Config configures a Server.
type Config struct {
	// Queue bounds the FIFO job queue; submissions beyond it are rejected
	// with 429 (default 16).
	Queue int
	// Workers sizes the one pool of mission slots the running jobs share,
	// and each job's campaign worker pool (0 = campaign.DefaultWorkers).
	// Worker width never changes results — the determinism-by-construction
	// invariant — only wall-clock time.
	Workers int
	// RecordDir, when set, is where recorded jobs persist their mission
	// recordings and job manifest; on startup the server recovers finished
	// jobs found there without re-simulating them.
	RecordDir string
	// Deadline is the per-mission wall-clock budget applied to every job
	// (0 = none). Missions over budget are abandoned with the
	// DeadlineExceeded outcome, keeping one wedged mission from pinning the
	// queue.
	Deadline time.Duration
	// WarmWorlds lists environments to build at startup so the first job
	// doesn't pay world construction.
	WarmWorlds []string
}

// Server is the campaign service. Create with New, expose via Handler, stop
// with Close.
type Server struct {
	cfg    Config
	assets *matrix.Assets

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission/recovery order, for GET /jobs
	next  int      // next job ID ordinal

	queue chan *Job
	slots *campaign.Slots // mission slots shared by the running jobs

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	draining atomic.Bool
	drainc   chan struct{}

	metrics metrics
}

// executors is how many jobs run at once. Two keep every slot busy across
// a job boundary; more would only queue more missions for the same slots.
const executors = 2

// New builds a Server: recovers recorded jobs from cfg.RecordDir (if set),
// warms the requested worlds, and starts the executor goroutines that drain
// the job queue in FIFO order.
func New(cfg Config) (*Server, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = campaign.DefaultWorkers()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		assets: matrix.NewAssets(),
		jobs:   make(map[string]*Job),
		queue:  make(chan *Job, cfg.Queue),
		slots:  campaign.NewSlots(workers),
		ctx:    ctx,
		cancel: cancel,
		drainc: make(chan struct{}),
	}
	for _, w := range cfg.WarmWorlds {
		if _, err := s.assets.World(w); err != nil {
			cancel()
			return nil, fmt.Errorf("server: warming world: %w", err)
		}
	}
	if cfg.RecordDir != "" {
		if err := s.recoverJobs(); err != nil {
			cancel()
			return nil, err
		}
	}
	s.wg.Add(executors)
	for range executors {
		go s.executor()
	}
	return s, nil
}

// Close stops the executors, cancels the running jobs (also one still
// waiting for a slot), and waits for them to unwind. Queued-but-unstarted
// jobs are marked canceled.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			s.metrics.jobsQueued.Add(-1)
			s.metrics.jobsCanceled.Add(1)
			j.finish(JobCanceled, "server shut down", nil)
		default:
			return
		}
	}
}

// Drain is the graceful-shutdown path: it stops the executors from picking
// up new work, lets the running jobs finish (bounded by ctx), and finishes
// every still-queued job as interrupted — the same state restart recovery
// uses for half-done work, so clients handle both identically by
// resubmitting. New submissions are rejected for the rest of the process's
// life. Returns ctx.Err() if a running job outlived the drain budget.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(s.drainc)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// The executors have exited, so this sweep is the queue's only consumer.
	// It holds s.mu so it serializes against Submit's check-then-enqueue:
	// a submission either observes draining under the lock and is rejected,
	// or enqueued before the sweep and interrupted here — never enqueued
	// after it, where the job would sit unconsumed forever.
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		select {
		case j := <-s.queue:
			s.metrics.jobsQueued.Add(-1)
			s.metrics.jobsInterrupted.Add(1)
			j.finish(JobInterrupted, "interrupted by server drain; resubmit to re-run", nil)
		default:
			return nil
		}
	}
}

// Submit validates spec, assigns an ID, and enqueues the job. It returns
// errQueueFull (without consuming an ID) when the queue is at capacity,
// errDraining once a drain has begun, and a validation error for malformed
// specs.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	spec, run, err := spec.Spec()
	if err != nil {
		return nil, err
	}
	if spec.Record && s.cfg.RecordDir == "" {
		return nil, fmt.Errorf("server: job asks for recording but the server has no -record-dir")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-checked under s.mu: the unlocked check above is a fast path, but
	// only this one is ordered against Drain's queue sweep (which also
	// holds s.mu), so a submission can never slip into the queue after the
	// sweep has run and be left with no consumer.
	if s.draining.Load() {
		return nil, errDraining
	}
	// Submit is the queue's only sender and holds s.mu, so the room seen
	// here is still there at the send below. The manifest is written before
	// the job exists: its recordDir is settled before an executor can
	// dequeue it, and is never written again.
	if len(s.queue) == cap(s.queue) {
		s.metrics.jobsRejected.Add(1)
		return nil, errQueueFull
	}
	id := fmt.Sprintf("job-%04d", s.next+1)
	var recordDir string
	if spec.Record {
		recordDir = filepath.Join(s.cfg.RecordDir, id)
		if err := writeManifest(recordDir, manifest{ID: id, Spec: spec}); err != nil {
			// The job still runs; it just won't be recorded or recoverable.
			fmt.Fprintf(os.Stderr, "server: %s runs unrecorded: %v\n", id, err)
			recordDir = ""
		}
	}
	j := newJob(id, spec, run, recordDir)
	s.queue <- j
	s.next++
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.metrics.jobsQueued.Add(1)
	return j, nil
}

// errQueueFull rejects a submission when the FIFO queue is at capacity.
var errQueueFull = fmt.Errorf("server: job queue is full")

// errDraining rejects submissions once a graceful drain has begun.
var errDraining = fmt.Errorf("server: draining, not accepting jobs")

// Job returns the job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job's status in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	return out
}

// Cancel requests cancellation: a queued job is finished as canceled on
// dequeue; a running job has its context canceled — which also ends its
// wait for a slot — and finishes as canceled when its worker pool unwinds.
// Returns false for unknown or already terminal jobs.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() || j.cancelled {
		return false
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// executor is one of the two queue-draining goroutines: it takes jobs in
// FIFO order and runs one at a time. The jobs the two run share s.slots,
// so a job may fly on every slot the other job is not flying a mission on.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		// Checked separately first so a drain beats a ready queue: once
		// Drain has been called, no new job may start.
		select {
		case <-s.drainc:
			return
		default:
		}
		select {
		case <-s.ctx.Done():
			return
		case <-s.drainc:
			return
		case j := <-s.queue:
			s.metrics.jobsQueued.Add(-1)
			s.runJob(j)
		}
	}
}

// runJob executes one dequeued job through matrix.RunOn on the shared warm
// assets and slots, and moves it to its terminal state.
func (s *Server) runJob(j *Job) {
	spec := j.run
	spec.Workers = s.cfg.Workers
	spec.Slots = s.slots
	spec.Deadline = s.cfg.Deadline
	spec.RecordDir = j.recordDir
	spec.OnMission = func(i int, m qof.Metrics) {
		s.metrics.countMission(m.Outcome)
		j.publish(newMissionEvent(j.Cell, i, m))
	}

	j.mu.Lock()
	if j.cancelled {
		j.mu.Unlock()
		s.metrics.jobsCanceled.Add(1)
		j.finish(JobCanceled, "canceled while queued", nil)
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	j.state = JobRunning
	j.cancel = cancel
	s.metrics.jobStarted()
	j.mu.Unlock()
	defer cancel()

	res, err := matrix.RunOn(ctx, spec, s.assets)
	// Off the running gauge and the busy clock before finish wakes any
	// waiter, so a client that sees the job end never sees it running.
	s.metrics.jobEnded()
	switch {
	case err != nil && ctx.Err() != nil:
		s.metrics.jobsCanceled.Add(1)
		j.finish(JobCanceled, "canceled", nil)
	case err != nil:
		s.metrics.jobsFailed.Add(1)
		j.finish(JobFailed, err.Error(), nil)
	default:
		if res.RecordErr != nil {
			// Results are complete; only persistence is degraded. Surface
			// it in the status error field without failing the job.
			s.metrics.jobsDone.Add(1)
			j.finish(JobDone, fmt.Sprintf("recording incomplete: %v", res.RecordErr), res)
			return
		}
		s.metrics.jobsDone.Add(1)
		j.finish(JobDone, "", res)
	}
}

// manifest is the persisted job.json: enough to re-identify a recorded job
// after a restart.
type manifest struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
}

// writeManifest creates a job's recording directory and persists its
// manifest crash-safely: the atomic temp-file + rename protocol guarantees
// restart recovery sees either no job.json or a complete one, never a torn
// prefix — so a server killed mid-submit cannot poison its own recovery.
func writeManifest(dir string, m manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(filepath.Join(dir, "job.json"), append(b, '\n'), 0o644)
}
