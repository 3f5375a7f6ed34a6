package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
	"mavfi/internal/qof"
)

// fakeSpec is a 4-cell matrix (sparse × {sensor, wind} × {low, high}) the
// fake-client tests dispatch without flying a single mission.
func fakeSpec() matrix.Spec {
	return matrix.Spec{
		Worlds:     []string{"sparse"},
		Targets:    []matrix.Target{{Family: faultinject.FamilySensor}, {Family: faultinject.FamilyWind}},
		Severities: []matrix.Severity{{Name: "low", Scale: 0.35}, {Name: "high", Scale: 1.0}},
		Runs:       2,
		Seed:       42,
	}
}

// fakeMetrics fabricates a deterministic per-cell result: a pure function
// of the cell name, like the real engine, so any shard "computes" the same
// answer and the tests can assert reassembly correctness.
func fakeMetrics(name string, runs int) []qof.Metrics {
	h := fnv.New64a()
	fmt.Fprint(h, name)
	base := float64(h.Sum64()%1000) / 10
	out := make([]qof.Metrics, runs)
	for i := range out {
		out[i] = qof.Metrics{FlightTimeS: base + float64(i)}
	}
	return out
}

// fakeResult is the canonical fabricated WorkResult for a unit.
func fakeResult(unit WorkUnit) *WorkResult {
	return &WorkResult{
		Campaign: unit.Campaign,
		Cell:     unit.Cell,
		Name:     unit.Name,
		Token:    unit.Token,
		Results:  fakeMetrics(unit.Name, unit.Spec.Runs),
	}
}

// fakeClient scripts shard behavior per address. The zero behavior answers
// every exec promptly with the canonical fabricated result.
type fakeClient struct {
	mu    sync.Mutex
	execs map[string]int // per-addr exec count
	// exec, when non-nil, overrides Exec for an address; return (nil, nil)
	// to fall through to the canonical result.
	exec func(ctx context.Context, addr string, unit WorkUnit) (*WorkResult, error, bool)
	// down marks addresses whose health probes fail.
	down map[string]bool
}

func newFakeClient() *fakeClient {
	return &fakeClient{execs: make(map[string]int), down: make(map[string]bool)}
}

func (f *fakeClient) Exec(ctx context.Context, addr string, unit WorkUnit) (*WorkResult, error) {
	f.mu.Lock()
	f.execs[addr]++
	f.mu.Unlock()
	if f.exec != nil {
		if res, err, handled := f.exec(ctx, addr, unit); handled {
			return res, err
		}
	}
	return fakeResult(unit), nil
}

func (f *fakeClient) Health(ctx context.Context, addr string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[addr] {
		return errors.New("fake: down")
	}
	return nil
}

func (f *fakeClient) execCount(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.execs[addr]
}

func (f *fakeClient) totalExecs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.execs {
		n += c
	}
	return n
}

func (f *fakeClient) setDown(addr string, down bool) {
	f.mu.Lock()
	f.down[addr] = down
	f.mu.Unlock()
}

// checkResult asserts the reassembled result carries every enumerated cell
// exactly once with its canonical fabricated metrics.
func checkResult(t *testing.T, spec matrix.Spec, res *matrix.Result) {
	t.Helper()
	cells := matrix.Cells(spec)
	if len(res.Cells) != len(cells) {
		t.Fatalf("result has %d cells, want %d", len(res.Cells), len(cells))
	}
	for i, cr := range res.Cells {
		name := cells[i].Name()
		if cr.Cell.Name() != name {
			t.Fatalf("cell %d is %q, want %q", i, cr.Cell.Name(), name)
		}
		want := fakeMetrics(name, spec.Normalized().Runs)
		if len(cr.Campaign.Results) != len(want) {
			t.Fatalf("cell %q has %d results, want %d", name, len(cr.Campaign.Results), len(want))
		}
		for j, m := range cr.Campaign.Results {
			if m.FlightTimeS != want[j].FlightTimeS {
				t.Fatalf("cell %q mission %d: FlightTimeS %v, want %v (double count or cross-cell mixup)",
					name, j, m.FlightTimeS, want[j].FlightTimeS)
			}
		}
	}
}

func TestBackoffDelay(t *testing.T) {
	base, cap := 100*time.Millisecond, time.Second
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := backoffDelay(base, cap, i+1); got != w {
			t.Errorf("attempt %d: %v, want %v", i+1, got, w)
		}
	}
	// Huge attempt counts must saturate at cap, not overflow.
	if got := backoffDelay(base, cap, 500); got != cap {
		t.Errorf("attempt 500: %v, want %v", got, cap)
	}
}

func TestDispatchAllCellsOnce(t *testing.T) {
	fc := newFakeClient()
	d := New(Config{
		Shards:       []string{"a:1", "b:1"},
		Client:       fc,
		DisableLocal: true,
	})
	res, err := d.Run(context.Background(), fakeSpec())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, fakeSpec(), res)
	if got, want := fc.totalExecs(), len(matrix.Cells(fakeSpec())); got != want {
		t.Errorf("%d execs for %d cells (retries on a healthy fleet)", got, want)
	}
}

func TestRetryAfterShardDeath(t *testing.T) {
	// Shard a is dead on arrival (registered but crashed before its first
	// unit): every exec errors and its heartbeat fails. The dispatcher
	// starts healthy-optimistic, so a IS assigned work — which must all be
	// retried onto shard b, and the campaign must still finish.
	fc := newFakeClient()
	var aAsked atomic.Int64
	fc.exec = func(ctx context.Context, addr string, unit WorkUnit) (*WorkResult, error, bool) {
		if addr == "a:1" {
			aAsked.Add(1)
			fc.setDown("a:1", true)
			return nil, errors.New("fake: connection refused"), true
		}
		return nil, nil, false
	}
	d := New(Config{
		Shards:          []string{"a:1", "b:1"},
		Client:          fc,
		DisableLocal:    true,
		HeartbeatEvery:  10 * time.Millisecond,
		HeartbeatMisses: 2,
		RetryBase:       time.Millisecond,
		RetryCap:        10 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := d.Run(ctx, fakeSpec())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, fakeSpec(), res)
	st := d.Stat()
	if aAsked.Load() == 0 {
		t.Error("dead shard a:1 was never even tried (optimistic start broken)")
	}
	if st.Retries == 0 {
		t.Error("no retries recorded despite a dead shard")
	}
	if !shardHealthy(st, "b:1") {
		t.Error("surviving shard b:1 marked unhealthy")
	}
}

func shardHealthy(st Status, addr string) bool {
	for _, sh := range st.Shards {
		if sh.Addr == addr {
			return sh.Healthy
		}
	}
	return false
}

func TestLeaseFencingNeverDoubleCounts(t *testing.T) {
	// Shard a hangs on to its first unit well past the lease TTL, ignoring
	// the context (a zombie), then returns a VALID result. By then the
	// dispatcher has re-leased the cell to shard b and accepted b's result.
	// The zombie's late result must be fenced out by its stale token —
	// accepting it would double-count the cell.
	fc := newFakeClient()
	zombieDone := make(chan struct{})
	var zombied atomic.Bool
	fc.exec = func(ctx context.Context, addr string, unit WorkUnit) (*WorkResult, error, bool) {
		if addr == "a:1" && zombied.CompareAndSwap(false, true) {
			<-ctx.Done()                      // lease expired...
			time.Sleep(50 * time.Millisecond) // ...zombie keeps going anyway
			defer close(zombieDone)
			return fakeResult(unit), nil, true // and delivers a valid result
		}
		return nil, nil, false
	}
	d := New(Config{
		Shards:       []string{"a:1", "b:1"},
		Client:       fc,
		DisableLocal: true,
		LeaseTTL:     50 * time.Millisecond,
		RetryBase:    time.Millisecond,
		RetryCap:     5 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := d.Run(ctx, fakeSpec())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, fakeSpec(), res)
	select {
	case <-zombieDone:
	case <-time.After(10 * time.Second):
		t.Fatal("zombie exec never finished")
	}
	st := d.Stat()
	if st.Expired == 0 {
		t.Error("no expired leases recorded despite a zombie shard")
	}
	if st.Done != st.Total {
		t.Errorf("done %d != total %d", st.Done, st.Total)
	}
}

func TestResumeSkipsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	spec := fakeSpec()
	run := func(fc *fakeClient) *matrix.Result {
		d := New(Config{
			Shards:       []string{"a:1"},
			Client:       fc,
			DisableLocal: true,
			StateDir:     dir,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := d.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	checkResult(t, spec, run(newFakeClient()))

	// A re-run over the same state dir re-executes nothing.
	fc2 := newFakeClient()
	checkResult(t, spec, run(fc2))
	if n := fc2.totalExecs(); n != 0 {
		t.Errorf("resume re-executed %d cells, want 0", n)
	}

	// Deleting one persisted cell re-runs exactly that cell.
	if err := os.Remove(filepath.Join(dir, "cells", "cell-002.json")); err != nil {
		t.Fatal(err)
	}
	fc3 := newFakeClient()
	checkResult(t, spec, run(fc3))
	if n := fc3.totalExecs(); n != 1 {
		t.Errorf("resume after one lost cell re-executed %d cells, want 1", n)
	}

	// A torn (truncated) cell file is skipped, not trusted: that cell
	// re-runs too.
	path := filepath.Join(dir, "cells", "cell-001.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	fc4 := newFakeClient()
	checkResult(t, spec, run(fc4))
	if n := fc4.totalExecs(); n != 1 {
		t.Errorf("resume after one torn cell re-executed %d cells, want 1", n)
	}

	// A well-formed cell file with the wrong mission count (fewer results
	// than Spec.Runs) is rejected on load and re-runs: trusting it would
	// assemble a short cell.
	path = filepath.Join(dir, "cells", "cell-000.json")
	b, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var short cellState
	if err := json.Unmarshal(b, &short); err != nil {
		t.Fatal(err)
	}
	short.Results = short.Results[:1]
	b, err = json.Marshal(short)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	fc5 := newFakeClient()
	checkResult(t, spec, run(fc5))
	if n := fc5.totalExecs(); n != 1 {
		t.Errorf("resume after one short cell re-executed %d cells, want 1", n)
	}
}

func TestStateDirRefusesDifferentCampaign(t *testing.T) {
	dir := t.TempDir()
	run := func(spec matrix.Spec) error {
		d := New(Config{Shards: []string{"a:1"}, Client: newFakeClient(), DisableLocal: true, StateDir: dir})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := d.Run(ctx, spec)
		return err
	}
	if err := run(fakeSpec()); err != nil {
		t.Fatal(err)
	}

	// A different cell enumeration is refused on the persisted name list.
	other := fakeSpec()
	other.Severities = other.Severities[:1]
	if err := run(other); err == nil {
		t.Fatal("state dir from a different cell enumeration was accepted")
	}

	// Identical cell names but different determinism knobs must be refused
	// too: names don't encode any of these, the manifest ID does. Reusing
	// the stale results would silently mix two campaigns' bytes.
	knobs := map[string]func(*matrix.Spec){
		"seed":        func(s *matrix.Spec) { s.Seed = 43 },
		"runs":        func(s *matrix.Spec) { s.Runs = 3 },
		"max-mission": func(s *matrix.Spec) { s.MaxMissionS = 9 },
		"train":       func(s *matrix.Spec) { s.TrainEnvs = 5 },
		"map-seed":    func(s *matrix.Spec) { s.MapSeed = "memo" },
		"near-stride": func(s *matrix.Spec) { s.NearFieldStride = 4 },
	}
	for name, mutate := range knobs {
		spec := fakeSpec()
		mutate(&spec)
		if err := run(spec); err == nil {
			t.Errorf("state dir was reused for a spec with a different %s", name)
		}
	}

	// The unchanged spec still resumes cleanly after all those refusals.
	if err := run(fakeSpec()); err != nil {
		t.Fatalf("unchanged spec no longer resumes: %v", err)
	}
}

func TestWakesForLateShardRegistration(t *testing.T) {
	// A dispatcher with no shards at all (and local disabled) must pick up
	// a shard registered mid-run — the POST /workers path.
	fc := newFakeClient()
	d := New(Config{Client: fc, DisableLocal: true})
	go func() {
		time.Sleep(50 * time.Millisecond)
		d.AddShard("late:1")
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := d.Run(ctx, fakeSpec())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, fakeSpec(), res)
	if fc.execCount("late:1") == 0 {
		t.Error("late shard never used")
	}
}

func TestRunRejectsConcurrentCampaigns(t *testing.T) {
	fc := newFakeClient()
	started := make(chan struct{})
	release := make(chan struct{})
	fc.exec = func(ctx context.Context, addr string, unit WorkUnit) (*WorkResult, error, bool) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return nil, nil, false
	}
	d := New(Config{Shards: []string{"a:1"}, Client: fc, DisableLocal: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(ctx, fakeSpec())
		done <- err
	}()
	<-started
	if _, err := d.Run(ctx, fakeSpec()); err == nil {
		t.Error("second concurrent Run accepted")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	fc := newFakeClient()
	fc.exec = func(ctx context.Context, addr string, unit WorkUnit) (*WorkResult, error, bool) {
		<-ctx.Done()
		return nil, ctx.Err(), true
	}
	d := New(Config{Shards: []string{"a:1"}, Client: fc, DisableLocal: true})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := d.Run(ctx, fakeSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunRefusesInvalidSpecAtOnce: a spec matrix.Spec.Check refuses fails
// before any unit is launched, with the check's own text — no retry could
// make it valid, so the dispatcher must not retry it.
func TestRunRefusesInvalidSpecAtOnce(t *testing.T) {
	bad := map[string]func(*matrix.Spec){
		"world":      func(s *matrix.Spec) { s.Worlds = []string{"bogus"} },
		"detector":   func(s *matrix.Spec) { s.Detectors = []string{"bogus"} },
		"stride":     func(s *matrix.Spec) { s.NearFieldStride = -1 },
		"map-seed":   func(s *matrix.Spec) { s.MapSeed = "seed" },
		"severity":   func(s *matrix.Spec) { s.Severities = []matrix.Severity{{Name: " high", Scale: 1}} },
		"fault kind": func(s *matrix.Spec) { s.Targets = []matrix.Target{{Family: faultinject.FamilyWind, Kind: "gust"}} },
	}
	for name, mutate := range bad {
		spec := fakeSpec()
		mutate(&spec)
		want := spec.Check()
		if want == nil {
			t.Fatalf("%s: the check accepted the spec", name)
		}
		fc := newFakeClient()
		var cellsDone atomic.Int64
		d := New(Config{
			Shards:     []string{"a:1"},
			Client:     fc,
			OnCellDone: func(int, int) { cellsDone.Add(1) },
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := d.Run(ctx, spec)
		cancel()
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Run returned %v, want the check's %q", name, err, want)
		}
		if n := fc.totalExecs(); n != 0 {
			t.Errorf("%s: %d units sent to shards", name, n)
		}
		if st := d.Stat(); st.LocalRuns != 0 || cellsDone.Load() != 0 {
			t.Errorf("%s: %d local runs, %d cells done", name, st.LocalRuns, cellsDone.Load())
		}
	}
}

// TestWorkerRefusesRecordedUnit: a worker records nothing, so a unit that
// asks for recording is refused before any mission flies.
func TestWorkerRefusesRecordedUnit(t *testing.T) {
	w := NewWorker(WorkerConfig{Workers: 1})
	unit := WorkUnit{Campaign: "c", Name: "sparse-wind-high-none-norec",
		Spec: matrix.CellSpec{World: "sparse", Fault: "wind", Runs: 1, Record: true}}
	if _, err := w.Exec(context.Background(), unit); err == nil {
		t.Fatal("a unit asking for recording was executed")
	}
	unit.Spec.Record = false
	if _, err := w.Exec(context.Background(), unit); err != nil {
		t.Fatalf("the same unit without recording: %v", err)
	}
}
