package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/dispatch"
)

// shardClient wraps the production shard transport: it tracks the cells in
// flight (so a capped run can name them) and times every /exec round trip.
type shardClient struct {
	inner  dispatch.ShardClient
	r      *run
	round  atomic.Int64 // span id of the current dispatcher run
	probes atomic.Int64

	mu     sync.Mutex
	rtt    map[string]float64 // unitKey → round-trip ms
	failed int
	calls  int
}

func (c *shardClient) Exec(ctx context.Context, addr string, unit dispatch.WorkUnit) (*dispatch.WorkResult, error) {
	key := fmt.Sprintf("cell %s token %05d %s on %s", unit.Campaign, unit.Token, unit.Name, addr)
	c.r.prog.begin(key)
	sp := c.r.spans.begin("dispatch exec", fmt.Sprintf("%s/%d", unit.Campaign, unit.Cell), int(c.round.Load()))
	t := time.Now()
	res, err := c.inner.Exec(ctx, addr, unit)
	ms := msSince(t)
	c.r.spans.end(sp)
	c.r.prog.end(key)
	c.mu.Lock()
	c.rtt[unitKey(unit)] = ms
	c.calls++
	if err != nil {
		c.failed++
	}
	c.mu.Unlock()
	return res, err
}

func (c *shardClient) Health(ctx context.Context, addr string) error {
	c.probes.Add(1)
	return c.inner.Health(ctx, addr)
}

// unitKey identifies one assignment: fencing tokens restart with every
// dispatcher, so the campaign ID makes them unique across rounds.
func unitKey(u dispatch.WorkUnit) string { return fmt.Sprintf("%s/%d", u.Campaign, u.Token) }

// timedHandler times the shard side of each /exec call, keyed by the unit's
// assignment, so the round trip splits into worker time and wire time.
type timedHandler struct {
	inner http.Handler
	r     *run
	mu    sync.Mutex
	exec  map[string]float64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/exec" {
		h.inner.ServeHTTP(w, req)
		return
	}
	var body bytes.Buffer
	req.Body = io.NopCloser(io.TeeReader(req.Body, &body))
	sp := h.r.spans.begin("worker exec", "", 0)
	t := time.Now()
	h.inner.ServeHTTP(w, req)
	ms := msSince(t)
	h.r.spans.end(sp)
	var unit dispatch.WorkUnit
	if json.Unmarshal(body.Bytes(), &unit) == nil {
		h.mu.Lock()
		h.exec[unitKey(unit)] = ms
		h.mu.Unlock()
	}
}

// fleet is the dispatched workload's set-up: two single-worker shards on
// loopback listeners and the dispatcher's shard client.
type fleet struct {
	shards   []*httptest.Server
	handlers []*timedHandler
	addrs    []string
	client   *shardClient
	dir      string
}

func (f *fleet) close() {
	for _, s := range f.shards {
		s.Close()
	}
	os.RemoveAll(f.dir)
}

func (r *run) startFleet() (*fleet, func(), error) {
	dir, err := os.MkdirTemp("", "mavfibench-dispatch-")
	if err != nil {
		return nil, nil, err
	}
	f := &fleet{
		dir:    dir,
		client: &shardClient{inner: dispatch.NewHTTPShardClient(nil), r: r, rtt: map[string]float64{}},
	}
	for k := 0; k < loadWorkers; k++ {
		var h http.Handler = dispatch.NewWorker(dispatch.WorkerConfig{Workers: 1}).Handler()
		if r.trace {
			th := &timedHandler{inner: h, r: r, exec: map[string]float64{}}
			f.handlers = append(f.handlers, th)
			h = th
		}
		ts := httptest.NewServer(h)
		f.shards = append(f.shards, ts)
		f.addrs = append(f.addrs, ts.Listener.Addr().String())
	}
	for _, a := range f.addrs {
		if err := f.client.inner.Health(context.Background(), a); err != nil {
			f.close()
			return nil, nil, err
		}
	}
	return f, f.close, nil
}

// dispatchedSpec is round i's matrix: 4 worlds × 4 targets × 3 severities.
func (r *run) dispatchedSpec(i int) matrix.Spec {
	return matrix.Spec{
		Worlds:     allWorlds,
		Targets:    sweepTargets,
		Severities: mustSeverities("low,med,high"),
		Runs:       r.runsPerCell(2),
		Seed:       roundSeed(r.seed, i),
	}
}

// runDispatched fans one matrix per round across two shards (one worker
// each) until the timed phase ends, then checks every round's CSVs against
// an in-process matrix.RunOn of the same spec.
func runDispatched(r *run) *report {
	f, cleanup, err := measureSetup(r, r.startFleet)
	defer cleanup()
	if err != nil {
		r.rep.fail("setup: %v", err)
		return r.rep
	}
	var stats []dispatch.Status
	rounds, t := r.runRounds(r.dispatchedSpec, func(i int, spec matrix.Spec) (*matrix.Result, error) {
		d := dispatch.New(dispatch.Config{
			Shards:   f.addrs,
			StateDir: filepath.Join(f.dir, fmt.Sprintf("round-%03d", i)),
			Workers:  loadWorkers,
			Client:   f.client,
		})
		sp := r.spans.begin("dispatch.Run", fmt.Sprintf("round-%d", i), 0)
		defer r.spans.end(sp)
		f.client.round.Store(int64(sp))
		res, err := d.Run(context.Background(), spec)
		stats = append(stats, d.Stat())
		return res, err
	})
	f.client.mu.Lock()
	r.rep.Attempted += f.client.calls
	r.rep.Failed += f.client.failed
	f.client.mu.Unlock()
	// Retries and lease expiries cost wall time without CPU, so a slow run
	// can be told apart from a slow host.
	var total dispatch.Status
	for _, s := range stats {
		total.Retries += s.Retries
		total.Expired += s.Expired
		total.StaleDrops += s.StaleDrops
		total.LocalRuns += s.LocalRuns
	}
	r.rep.info("dispatch retries=%d expired_leases=%d stale_drops=%d local_runs=%d",
		total.Retries, total.Expired, total.StaleDrops, total.LocalRuns)

	// Reference: round 0 in full, and the first world of every later round,
	// in process on the same worker count.
	assets := matrix.NewAssets()
	var inproc float64
	for i, rd := range rounds {
		spec := rd.spec
		if i > 0 {
			spec = firstWorld(spec)
		}
		spec.Workers = loadWorkers
		t0 := time.Now()
		res, err := matrix.RunOn(context.Background(), spec, assets)
		if i == 0 {
			inproc = msSince(t0)
		}
		if err != nil {
			r.rep.fail("round %d reference: %v", i, err)
			continue
		}
		if i == 0 && !bytes.Equal(csvBytes(res), csvBytes(rd.res)) {
			r.rep.fail("round 0: dispatched CSVs differ from matrix.RunOn")
		}
		if name, ok := sameCells(rd.res, res); !ok {
			r.rep.fail("round %d: dispatched cell %s differs from matrix.RunOn", i, name)
		}
	}
	r.rep.info("check dispatched: round 0 and the first world of %d more rounds identical to matrix.RunOn", len(rounds)-1)
	if r.trace && len(rounds) > 0 {
		r.dispatchLayers(f, total, rounds[0].wallMS, inproc)
		r.attribute(assets, flownCells(rounds[0].spec, rounds[0].res), t.missions, t.wallMS)
	}
	return r.rep
}

// dispatchLayers reports the dispatch layer: round trips, the worker's share
// of them, the rest (wire: encoding, HTTP, decoding), the dispatcher's
// counters, and round 0's wall time against the same spec in process.
func (r *run) dispatchLayers(f *fleet, total dispatch.Status, wall, inproc float64) {
	f.client.mu.Lock()
	defer f.client.mu.Unlock()
	var rtt, exec, wire []float64
	for key, ms := range f.client.rtt {
		rtt = append(rtt, ms)
		for _, h := range f.handlers {
			h.mu.Lock()
			if w, ok := h.exec[key]; ok {
				exec = append(exec, w)
				wire = append(wire, ms-w)
			}
			h.mu.Unlock()
		}
	}
	r.rep.layer("dispatch.exec_rtt_ms_p50", "ms", median(rtt))
	r.rep.layer("dispatch.exec_rtt_ms_p90", "ms", quantile(rtt, 0.9))
	r.rep.layer("dispatch.worker_exec_ms_p50", "ms", median(exec))
	r.rep.layer("dispatch.wire_ms_p50", "ms", median(wire))
	r.rep.layer("dispatch.overhead_frac", "frac", ratio(wall, inproc)-1)
	r.rep.layer("dispatch.retries", "count", float64(total.Retries))
	r.rep.layer("dispatch.expired_leases", "count", float64(total.Expired))
	r.rep.layer("dispatch.stale_drops", "count", float64(total.StaleDrops))
	r.rep.layer("dispatch.local_runs", "count", float64(total.LocalRuns))
	r.rep.layer("dispatch.health_probes", "count", float64(f.client.probes.Load()))
}
