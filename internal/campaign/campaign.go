// Package campaign is the parallel fault-injection campaign engine: it
// shards the N independent missions of a campaign across a worker pool and
// aggregates their quality-of-flight metrics.
//
// Missions are embarrassingly parallel — each is a pure function of its
// mission index — so the engine guarantees bit-identical campaign results
// regardless of worker count: every mission's inputs derive only from
// (campaign seed, mission index), each worker writes its result to the
// mission's own slot, and the final qof.Campaign is assembled in mission
// order.
//
// Sharing model: the one structure all shards share is the campaign's
// env.World — its uniform-grid obstacle index is built by the first sensor
// query under sync.Once and is strictly read-only afterwards, so every
// parallel mission raycasts against a single index and World.Obstacles must
// not be mutated once a campaign has started. Everything mutable is
// per-mission: detectors are cloned per mission (detect.GAD.Clone,
// detect.AAD.Clone / nn.CloneForInference), and each mission owns its
// runner, octree, scratch buffers, and RNG streams. See
// docs/ARCHITECTURE.md ("Campaign concurrency invariants") for the full
// list these workers rely on.
//
// Runners that run at the same time may share one Slots pool, which bounds
// the missions they fly together (WithSlots); that changes only when a
// mission flies, never its result.
package campaign

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mavfi/internal/qof"
)

// EnvWorkers is the environment variable that overrides the default worker
// count (a positive integer).
const EnvWorkers = "MAVFI_WORKERS"

// DefaultWorkers resolves the default pool size: MAVFI_WORKERS when set to a
// positive integer, otherwise GOMAXPROCS.
func DefaultWorkers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Slots is a pool of mission slots that several runners share: a counting
// semaphore that serves its waiters in arrival order. A Runner built
// WithSlots takes one slot for each mission it flies, so all the runners on
// one pool together never fly more missions at once than the pool has
// slots, while a runner alone on the pool may use every slot. A long-running
// service sizes one pool to its cores and lets two campaigns share it, so
// one campaign's tail and set-up do not leave a core idle while the other
// has missions to fly.
//
// The pool is a buffered channel: a send takes a slot, a receive gives one
// back. Blocked senders queue in FIFO order, and a released slot passes
// straight to the oldest of them, so a newcomer cannot overtake a waiter.
// A nil *Slots is an unbounded pool whose methods do nothing.
type Slots struct{ c chan struct{} }

// NewSlots returns a pool of n slots (at least one).
func NewSlots(n int) *Slots {
	return &Slots{c: make(chan struct{}, max(n, 1))}
}

// Acquire takes one slot, waiting behind earlier callers. It returns
// ctx.Err() if ctx has ended or ends before a slot is free, and nil at once
// on a nil pool. Every successful Acquire must be paired with one Release.
func (s *Slots) Acquire(ctx context.Context) error {
	if s == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.c <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release gives back a slot taken by Acquire.
func (s *Slots) Release() {
	if s != nil {
		<-s.c
	}
}

// Runner executes campaigns on a fixed-size worker pool. The zero value is
// not ready; use New.
type Runner struct {
	workers    int
	progress   func(done, total int)
	deadline   time.Duration
	resultHook func(i int, m qof.Metrics)
	slots      *Slots
}

// Option configures a Runner.
type Option func(*Runner)

// WithWorkers sets the pool size. Values below 1 keep the default
// (MAVFI_WORKERS, else GOMAXPROCS), so call sites can pass a zero
// "automatic" knob straight through.
func WithWorkers(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.workers = n
		}
	}
}

// WithProgress installs a progress hook invoked after every completed
// mission with the number of missions done so far and the campaign total.
// The hook may be called concurrently from multiple workers.
func WithProgress(fn func(done, total int)) Option {
	return func(r *Runner) { r.progress = fn }
}

// WithResultHook installs a hook invoked once per mission from Run, as soon
// as the mission's result is final — including the synthesized qof.Panicked
// and qof.DeadlineExceeded outcomes the hardened engine produces, which never
// reach the Mission function's own return path. Hooks fire in completion
// order (not mission order) and may be called concurrently from multiple
// workers; the final Outcome is still assembled in mission order. This is the
// streaming surface campaign services use to push per-mission results to
// subscribers while a job is still running.
func WithResultHook(fn func(i int, m qof.Metrics)) Option {
	return func(r *Runner) { r.resultHook = fn }
}

// WithMissionDeadline bounds each mission's wall-clock run time in Run: a
// mission still running when the deadline expires is abandoned and recorded
// as qof.DeadlineExceeded (its goroutine keeps running detached until it
// finishes — missions cannot be preempted — but the campaign no longer waits
// for it). Zero or negative disables the deadline.
//
// Deadlines are a robustness guard against runaway missions, not a
// determinism feature: whether a borderline mission beats its deadline
// depends on host load, so deadline-bearing campaigns are excluded from the
// byte-identity invariants (the CI matrix smoke runs without one).
func WithMissionDeadline(d time.Duration) Option {
	return func(r *Runner) {
		if d > 0 {
			r.deadline = d
		}
	}
}

// WithSlots makes every mission the Runner flies (in Run and ForEach) take
// one slot of pool first and give it back when the mission returns. A
// worker claims a mission index, waits for a slot, then starts the mission
// and its deadline clock; a mission abandoned by WithMissionDeadline gives
// its slot back with the worker while its goroutine runs on. A worker whose
// context ends while it waits stops without flying its claimed mission.
// Slots change when missions fly, never their results. A nil pool (the
// default) adds no wait, channel operation or allocation.
func WithSlots(pool *Slots) Option {
	return func(r *Runner) { r.slots = pool }
}

// New builds a Runner with DefaultWorkers workers unless overridden.
func New(opts ...Option) *Runner {
	r := &Runner{workers: DefaultWorkers()}
	for _, o := range opts {
		o(r)
	}
	if r.workers < 1 {
		r.workers = 1
	}
	return r
}

// Workers returns the configured pool size.
func (r *Runner) Workers() int { return r.workers }

// MissionSeed derives a deterministic RNG seed for mission i of a campaign
// rooted at campaignSeed — a splitmix64-style avalanche of the pair, so
// per-mission streams are decorrelated from each other and from the campaign
// seed itself. The Runner does not impose a seeding scheme: call sites own
// seed derivation (the experiments use the paper's campaignSeed+i so run i
// stays paired across campaign cells); MissionSeed is the helper for new
// campaigns that want decorrelated streams instead.
func MissionSeed(campaignSeed int64, i int) int64 {
	z := uint64(campaignSeed) + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ForEach runs fn(i) for every i in [0, n) across the worker pool. fn must
// be safe for concurrent invocation and should write outputs only to
// per-index (disjoint) storage; all writes are visible to the caller when
// ForEach returns. When ctx is cancelled, workers stop claiming new indices
// and stop waiting for slots, missions already started run to completion,
// and ForEach returns ctx.Err.
func (r *Runner) ForEach(ctx context.Context, n int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n || r.slots.Acquire(ctx) != nil {
					return
				}
				fn(i)
				r.slots.Release()
				if r.progress != nil {
					r.progress(int(done.Add(1)), n)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Mission computes mission i of a campaign. It must be safe for concurrent
// invocation and must depend only on i (and immutable captured state) so
// campaign results stay independent of scheduling.
type Mission func(i int) qof.Metrics

// MissionPanic records one isolated mission panic: which mission, what it
// panicked with, and the goroutine stack captured at the recover site.
type MissionPanic struct {
	// Index is the mission index within the campaign.
	Index int
	// Value is the panic value, rendered with %v.
	Value string
	// Stack is the panicking goroutine's stack (runtime/debug.Stack).
	Stack string
}

// Outcome is one campaign's aggregate: the mission-ordered qof.Campaign and
// the missions that panicked.
type Outcome struct {
	// Campaign holds mission results in mission-index order; Results[i] is
	// mission i. After a cancellation it is truncated to the longest
	// contiguous prefix of completed missions, preserving that invariant.
	Campaign *qof.Campaign
	// Panics lists the isolated mission panics in mission-index order; the
	// corresponding Campaign results carry qof.Panicked. A healthy campaign
	// has none.
	Panics []MissionPanic
}

// Run executes the n missions of one campaign across the pool and aggregates
// them. On cancellation it returns the partial Outcome together with
// ctx.Err(); the partial campaign covers the longest contiguous prefix of
// completed missions.
//
// Run degrades gracefully instead of tearing the campaign down: a panicking
// mission is isolated into a qof.Panicked result (stack in Outcome.Panics)
// and, when a WithMissionDeadline is set, an overrunning mission is
// abandoned as qof.DeadlineExceeded. Both outcomes flow through the ordinary
// aggregation, so one poisoned mission costs one cell entry, not the sweep.
func (r *Runner) Run(ctx context.Context, name string, n int, mission Mission) (*Outcome, error) {
	results := make([]qof.Metrics, n)
	ran := make([]bool, n)
	var panicMu sync.Mutex
	var panics []MissionPanic
	onPanic := func(p MissionPanic) {
		panicMu.Lock()
		panics = append(panics, p)
		panicMu.Unlock()
	}
	err := r.ForEach(ctx, n, func(i int) {
		m := r.runGuarded(i, mission, onPanic)
		results[i], ran[i] = m, true
		if r.resultHook != nil {
			r.resultHook(i, m)
		}
	})
	out := &Outcome{Campaign: &qof.Campaign{Name: name}}
	panicMu.Lock()
	out.Panics = append(out.Panics, panics...)
	panicMu.Unlock()
	sort.Slice(out.Panics, func(a, b int) bool { return out.Panics[a].Index < out.Panics[b].Index })
	for i := range results {
		if !ran[i] {
			break
		}
		out.Campaign.Add(results[i])
	}
	return out, err
}

// runGuarded executes mission(i) with panic isolation and the optional
// wall-clock deadline. Without a deadline the mission runs inline on the
// worker goroutine — no extra goroutine, no timer — so hardened execution is
// bit-identical (and allocation-identical) to the pre-hardening engine for
// well-behaved missions.
func (r *Runner) runGuarded(i int, mission Mission, onPanic func(MissionPanic)) qof.Metrics {
	if r.deadline <= 0 {
		return callIsolated(i, mission, onPanic)
	}
	done := make(chan qof.Metrics, 1)
	go func() { done <- callIsolated(i, mission, onPanic) }()
	timer := time.NewTimer(r.deadline)
	defer timer.Stop()
	select {
	case m := <-done:
		return m
	case <-timer.C:
		// The mission goroutine keeps running detached (missions cannot be
		// preempted) and parks its eventual result in the buffered channel;
		// the campaign stops waiting for it now.
		return qof.Metrics{Outcome: qof.DeadlineExceeded}
	}
}

// callIsolated invokes mission(i), converting a panic into a structured
// qof.Panicked result instead of tearing down the whole campaign.
func callIsolated(i int, mission Mission, onPanic func(MissionPanic)) (m qof.Metrics) {
	defer func() {
		if v := recover(); v != nil {
			onPanic(MissionPanic{Index: i, Value: fmt.Sprintf("%v", v), Stack: string(debug.Stack())})
			m = qof.Metrics{Outcome: qof.Panicked}
		}
	}()
	return mission(i)
}
