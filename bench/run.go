package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// run is one workload execution's context.
type run struct {
	options
	rep   *report
	prog  progress
	spans *spanLog // nil when untraced: every span call is then a no-op
	// stages are named set-up step timings (ms) of the last set-up pass,
	// reported as matrix.* layer metrics.
	stages map[string]float64
}

func newRun(o options) *run {
	r := &run{options: o, rep: newReport(o.workload, o.trace), stages: map[string]float64{}}
	if o.trace {
		r.spans = &spanLog{t0: time.Now()}
	}
	return r
}

// duration is the timed phase's length.
func (r *run) duration() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

// stage times one named set-up step into r.stages.
func (r *run) stage(name string, fn func() error) error {
	t := time.Now()
	err := fn()
	r.stages[name] += msSince(t)
	return err
}

// Set-up is repeated at least minSetupReps times, and while it is cheap up
// to maxSetupReps times or setupBudget; setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 200
	setupBudget  = 1500 * time.Millisecond
)

// measureSetup builds the workload's set-up state several times and reports
// the median build time as setup_s. Every instance but the last is released
// at once; the caller owns the last one's cleanup.
func measureSetup[T any](r *run, build func() (T, func(), error)) (T, func(), error) {
	var times []float64
	var v T
	var cleanup func()
	start := time.Now()
	for len(times) < minSetupReps || (len(times) < maxSetupReps && time.Since(start) < setupBudget) {
		if cleanup != nil {
			cleanup()
		}
		clear(r.stages)
		t := time.Now()
		var err error
		v, cleanup, err = build()
		if err != nil {
			return v, func() {}, err
		}
		times = append(times, time.Since(t).Seconds())
		if r.quick {
			break
		}
	}
	r.rep.metric("setup_s", "s", median(times))
	r.rep.info("setup reps=%d min_s=%g max_s=%g", len(times), quantile(times, 0), quantile(times, 1))
	for name, ms := range r.stages {
		r.rep.layer(name, "ms", ms)
	}
	return v, cleanup, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// progress tracks the work a run has started and finished, so a run stopped
// by the wall cap can name what never completed.
type progress struct {
	mu        sync.Mutex
	attempted int
	completed int
	open      map[string]bool
}

func (p *progress) begin(key string) {
	p.mu.Lock()
	if p.open == nil {
		p.open = map[string]bool{}
	}
	p.open[key] = true
	p.attempted++
	p.mu.Unlock()
}

func (p *progress) end(key string) {
	p.mu.Lock()
	if p.open[key] {
		delete(p.open, key)
		p.completed++
	}
	p.mu.Unlock()
}

// unfinished names the open work items in key order (keys sort in claim
// order, so the first ones are those that were running).
func (p *progress) unfinished() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, 0, len(p.open))
	for k := range p.open {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 8 {
		keys = append(keys[:8], fmt.Sprintf("... and %d more", len(keys)-8))
	}
	return keys
}

// hung returns the attempted and failed counts of a run stopped by the cap.
// The whole run failed (failed_frac = 1): its measurements are incomplete.
func (p *progress) hung() (attempted, failed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	attempted = max(p.attempted, 1)
	return attempted, attempted
}

// spanLog keeps the -trace pass's spans in memory until the run ends. The
// spans are recorded by the benchmark around its calls into each layer.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call: name, start and end (ms since the run began),
// the id of the span that caused it (0 = none) and a request id shared by
// every span of one request.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Request string  `json:"request"`
}

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name, request string, parent int) int {
	if l == nil {
		return 0
	}
	now := float64(time.Since(l.t0)) / 1e6
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Name: name, StartMS: now, EndMS: -1, Parent: parent, Request: request})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := float64(time.Since(l.t0)) / 1e6
	l.mu.Lock()
	l.spans[id-1].EndMS = now
	l.mu.Unlock()
}

// write stores the spans as JSON under dir and returns the file path.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	l.mu.Lock()
	b, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
