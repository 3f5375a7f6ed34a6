package dispatch

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/qof"
)

// Config configures a Dispatcher. Zero values take the documented defaults.
type Config struct {
	// Shards are the initial worker addresses (host:port). More can join at
	// runtime via AddShard / the POST /workers endpoint.
	Shards []string
	// LeaseTTL bounds one cell assignment: a shard that has not returned the
	// cell within it loses the lease, and the cell is retried elsewhere
	// (default 2m). The lease is the dispatcher's runaway protection — and
	// unlike matrix.Spec.Deadline it never breaks byte-identity, because an
	// expired lease discards the whole attempt instead of fabricating a
	// degraded mission result.
	LeaseTTL time.Duration
	// HeartbeatEvery is the health-probe period (default 1s);
	// HeartbeatMisses is how many consecutive failed probes mark a shard
	// unhealthy (default 3). One success marks it healthy again.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// RetryBase and RetryCap shape the capped exponential backoff between
	// retries of one cell: base<<(attempt-1) capped at RetryCap (defaults
	// 200ms and 5s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// DisableLocal forbids the local-execution fallback: with it set, cells
	// wait (with backoff) for a healthy shard forever. Chaos tests use this
	// to force the remote path; production leaves it off so a dispatcher
	// with zero healthy shards degrades to a slower single-process run
	// instead of stalling.
	DisableLocal bool
	// StateDir, when set, persists campaign state crash-safely: a manifest
	// plus one atomically written JSON per completed cell. A dispatcher
	// restarted with the same StateDir and spec resumes, re-running only
	// missing cells.
	StateDir string
	// Workers sizes the local-fallback campaign pool (0 = default).
	Workers int
	// Client is the shard transport (nil = NewHTTPShardClient(nil)). Tests
	// inject chaos here.
	Client ShardClient
	// Logf receives dispatch diagnostics (nil = silent).
	Logf func(format string, args ...any)
	// OnCellDone, when non-nil, is called (from the scheduling goroutine)
	// after each cell result is accepted and persisted — observability for
	// progress displays and the chaos harness.
	OnCellDone func(done, total int)
}

// withDefaults fills the documented defaults.
func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Minute
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 200 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 5 * time.Second
	}
	return c
}

// maxRemoteAttempts is how many failed remote attempts a cell tolerates
// before it falls back to local execution even while shards look healthy
// (unless DisableLocal is set).
const maxRemoteAttempts = 4

// perShard is the number of concurrent units one shard may hold: one, since
// a cell already fans its missions across the shard's own worker pool.
const perShard = 1

// backoffDelay is the capped exponential retry ladder: base<<(attempt-1),
// saturating at cap. attempt is 1-based (the first RETRY waits base).
func backoffDelay(base, cap time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap || d <= 0 { // <= 0 guards shift overflow
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}

// shard is one worker's dispatcher-side health and load record.
type shard struct {
	addr     string
	healthy  bool
	misses   int
	inflight int
}

// ShardStatus is one shard's externally visible state.
type ShardStatus struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Inflight int    `json:"inflight"`
	Misses   int    `json:"misses"`
}

// Status is a running (or finished) campaign's progress snapshot.
type Status struct {
	Campaign   string        `json:"campaign"`
	Total      int           `json:"total"`
	Done       int           `json:"done"`
	Inflight   int           `json:"inflight"`
	Retries    int64         `json:"retries"`
	Expired    int64         `json:"expired_leases"`
	StaleDrops int64         `json:"stale_drops"`
	LocalRuns  int64         `json:"local_runs"`
	Shards     []ShardStatus `json:"shards"`
}

// Dispatcher fans campaign-matrix cells out to worker shards. Create with
// New, register shards (Config.Shards, AddShard, or the POST /workers
// endpoint), then Run one campaign at a time.
type Dispatcher struct {
	cfg    Config
	client ShardClient
	local  *Worker

	mu     sync.Mutex
	shards map[string]*shard
	wake   chan struct{}

	campaignID atomic.Value // string
	total      atomic.Int64
	done       atomic.Int64
	inflight   atomic.Int64
	retries    atomic.Int64
	expired    atomic.Int64
	staleDrops atomic.Int64
	localRuns  atomic.Int64
	running    atomic.Bool
}

// New builds a Dispatcher.
func New(cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	client := cfg.Client
	if client == nil {
		client = NewHTTPShardClient(nil)
	}
	d := &Dispatcher{
		cfg:    cfg,
		client: client,
		local:  NewWorker(WorkerConfig{Workers: cfg.Workers}),
		shards: make(map[string]*shard),
		wake:   make(chan struct{}, 1),
	}
	for _, addr := range cfg.Shards {
		d.AddShard(addr)
	}
	return d
}

// logf forwards to the configured logger.
func (d *Dispatcher) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// AddShard registers a worker address (idempotent). New shards start
// healthy-optimistic: a first assignment probes them faster than a
// heartbeat round-trip would, and a failure just retries elsewhere.
func (d *Dispatcher) AddShard(addr string) {
	if addr == "" {
		return
	}
	d.mu.Lock()
	_, ok := d.shards[addr]
	if !ok {
		d.shards[addr] = &shard{addr: addr, healthy: true}
	}
	d.mu.Unlock()
	if !ok {
		d.logf("dispatch: shard %s registered", addr)
		d.wakeUp()
	}
}

// wakeUp nudges the scheduling loop without blocking.
func (d *Dispatcher) wakeUp() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Stat snapshots campaign progress and shard health.
func (d *Dispatcher) Stat() Status {
	st := Status{
		Total:      int(d.total.Load()),
		Done:       int(d.done.Load()),
		Inflight:   int(d.inflight.Load()),
		Retries:    d.retries.Load(),
		Expired:    d.expired.Load(),
		StaleDrops: d.staleDrops.Load(),
		LocalRuns:  d.localRuns.Load(),
	}
	if id, ok := d.campaignID.Load().(string); ok {
		st.Campaign = id
	}
	d.mu.Lock()
	for _, sh := range d.shards {
		st.Shards = append(st.Shards, ShardStatus{Addr: sh.addr, Healthy: sh.healthy, Inflight: sh.inflight, Misses: sh.misses})
	}
	d.mu.Unlock()
	sort.Slice(st.Shards, func(i, j int) bool { return st.Shards[i].Addr < st.Shards[j].Addr })
	return st
}

// campaignID derives the campaign's stable identity from every spec knob a
// cell result is a function of: the matrix seed, the enumerated cell names,
// and the knobs names don't encode (runs per cell, mission time budget,
// detector training size, map-seed mode, near-field stride). Two specs with
// the same ID produce byte-identical results, so a restarted dispatcher may
// reuse persisted cells verbatim — and one with a different ID must not.
func campaignID(spec matrix.Spec, cells []matrix.Cell) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d runs=%d maxmission=%v train=%d mapseed=%s stride=%d\n",
		spec.Seed, spec.Runs, spec.MaxMissionS, spec.TrainEnvs, spec.MapSeed, spec.NearFieldStride)
	for _, c := range cells {
		fmt.Fprintf(h, "%s\n", c.Name())
	}
	return fmt.Sprintf("mx-%016x", h.Sum64())
}

// pendingCell is one unassigned cell with its retry bookkeeping.
type pendingCell struct {
	idx      int
	attempts int       // failed attempts so far
	readyAt  time.Time // backoff gate; zero = immediately ready
}

// lease is one live assignment.
type lease struct {
	token    uint64
	sh       *shard    // nil = local execution
	deadline time.Time // zero = no deadline (local runs are in-process)
}

// attempt is one assignment's outcome, posted by its goroutine.
type attempt struct {
	idx   int
	token uint64
	sh    *shard
	res   *WorkResult
	err   error
}

// Run executes the matrix across the registered shards and reassembles a
// Result byte-identical to matrix.Run for the same spec. A spec that
// matrix.Spec.Check refuses fails at once with the check's error, before any
// unit is launched: no retry can make it valid. Cells are pure
// functions of their identity seeds, so placement, retries, worker deaths,
// and local fallback are all unobservable in the output. Progress persists
// crash-safely under Config.StateDir; a canceled or killed dispatcher
// re-run with the same StateDir and spec resumes where it left off.
//
// Per-mission streaming hooks (Spec.Progress, Spec.OnMission) and
// Spec.RecordDir only apply to missions the dispatcher itself runs, so Run
// clears them; Spec.Deadline is likewise cleared — the lease TTL is the
// dispatch-layer runaway protection, and it never breaks byte-identity.
func (d *Dispatcher) Run(ctx context.Context, spec matrix.Spec) (*matrix.Result, error) {
	if err := spec.Check(); err != nil {
		return nil, err
	}
	if !d.running.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("dispatch: a campaign is already running")
	}
	defer d.running.Store(false)

	nspec := spec.Normalized()
	nspec.Progress, nspec.OnMission = nil, nil
	nspec.RecordDir = ""
	nspec.Deadline = 0

	cells := matrix.Cells(nspec)
	id := campaignID(nspec, cells)
	d.campaignID.Store(id)
	st := campaignState{dir: d.cfg.StateDir}
	doneCells, err := st.init(id, nspec.Runs, cells)
	if err != nil {
		return nil, err
	}
	if doneCells == nil {
		doneCells = make(map[int]*cellState)
	}
	if n := len(doneCells); n > 0 {
		d.logf("dispatch: resuming campaign %s: %d/%d cells already complete", id, n, len(cells))
	}

	d.total.Store(int64(len(cells)))
	d.done.Store(int64(len(doneCells)))
	d.inflight.Store(0)

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go d.probeLoop(pctx)

	var (
		pending  []*pendingCell
		attempts = make(map[int]int)
		leases   = make(map[int]*lease)
		results  = make(chan attempt, len(cells)+8)
		nextTok  uint64
		localBsy int
	)
	for i := range cells {
		if doneCells[i] == nil {
			pending = append(pending, &pendingCell{idx: i})
		}
	}

	launch := func(pc *pendingCell, sh *shard, now time.Time) {
		nextTok++
		tok := nextTok
		unit := WorkUnit{
			Campaign: id,
			Cell:     pc.idx,
			Name:     cells[pc.idx].Name(),
			Token:    tok,
			Spec:     nspec.CellSpec(cells[pc.idx]),
		}
		l := &lease{token: tok, sh: sh}
		if sh != nil {
			l.deadline = now.Add(d.cfg.LeaseTTL)
			d.mu.Lock()
			sh.inflight++
			d.mu.Unlock()
		} else {
			localBsy++
			d.localRuns.Add(1)
		}
		leases[pc.idx] = l
		d.inflight.Add(1)
		go func() {
			if sh == nil {
				res, err := d.local.Exec(ctx, unit)
				results <- attempt{idx: pc.idx, token: tok, res: res, err: err}
				return
			}
			lctx, lcancel := context.WithTimeout(ctx, d.cfg.LeaseTTL)
			defer lcancel()
			res, err := d.client.Exec(lctx, sh.addr, unit)
			results <- attempt{idx: pc.idx, token: tok, sh: sh, res: res, err: err}
		}()
	}

	requeue := func(idx int, now time.Time) {
		attempts[idx]++
		d.retries.Add(1)
		pending = append(pending, &pendingCell{
			idx:      idx,
			attempts: attempts[idx],
			readyAt:  now.Add(backoffDelay(d.cfg.RetryBase, d.cfg.RetryCap, attempts[idx])),
		})
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

	for len(doneCells) < len(cells) {
		now := time.Now()

		// Expire overdue leases: the normal path is the lease context
		// cancelling the transport call, but a transport that ignores its
		// context must not wedge the campaign. Invalidating the lease here
		// fences the eventual late result out.
		for idx, l := range leases {
			if l.sh != nil && !l.deadline.IsZero() && now.After(l.deadline) {
				d.logf("dispatch: lease for cell %d (token %d) on %s expired; retrying elsewhere", idx, l.token, l.sh.addr)
				delete(leases, idx)
				d.expired.Add(1)
				d.inflight.Add(-1)
				requeue(idx, now)
			}
		}

		// Assign every ready pending cell we have capacity for.
		var defer_ []*pendingCell
		for _, pc := range pending {
			if pc.readyAt.After(now) {
				defer_ = append(defer_, pc)
				continue
			}
			sh := d.pickShard()
			switch {
			case !d.cfg.DisableLocal && pc.attempts >= maxRemoteAttempts && localBsy == 0:
				// The cell keeps failing remotely; stop bouncing it.
				d.logf("dispatch: cell %d failed %d attempts; running locally", pc.idx, pc.attempts)
				launch(pc, nil, now)
			case sh != nil:
				launch(pc, sh, now)
			case !d.cfg.DisableLocal && !d.anyHealthy() && localBsy == 0:
				// Degradation ladder's last rung: no healthy shard at all.
				d.logf("dispatch: no healthy shards; running cell %d locally", pc.idx)
				launch(pc, nil, now)
			default:
				defer_ = append(defer_, pc)
			}
		}
		pending = defer_

		// Sleep until the next backoff gate or lease deadline, a result, a
		// health transition, or cancellation.
		wakeAt := now.Add(time.Hour)
		for _, pc := range pending {
			if !pc.readyAt.IsZero() && pc.readyAt.Before(wakeAt) {
				wakeAt = pc.readyAt
			}
		}
		for _, l := range leases {
			if !l.deadline.IsZero() && l.deadline.Before(wakeAt) {
				wakeAt = l.deadline
			}
		}
		if len(pending) > 0 && len(leases) == 0 {
			// Nothing in flight and nothing assignable: bounded poll so a
			// recovering shard is picked up even without a wake edge.
			if hb := now.Add(d.cfg.HeartbeatEvery); hb.Before(wakeAt) {
				wakeAt = hb
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(wakeAt))

		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-d.wake:
		case <-timer.C:
		case att := <-results:
			if att.sh != nil {
				d.mu.Lock()
				att.sh.inflight--
				d.mu.Unlock()
			} else {
				localBsy--
			}
			l, live := leases[att.idx]
			if !live || l.token != att.token {
				// Fenced: the lease expired (or the cell completed) while
				// this attempt was in flight. Whatever it carries — even a
				// valid result — must not be double-counted.
				d.staleDrops.Add(1)
				d.logf("dispatch: dropping stale result for cell %d (token %d)", att.idx, att.token)
				continue
			}
			delete(leases, att.idx)
			d.inflight.Add(-1)
			now := time.Now()
			if att.err != nil || att.res == nil ||
				att.res.Name != cells[att.idx].Name() || len(att.res.Results) != nspec.Runs {
				if att.err == nil {
					att.err = fmt.Errorf("malformed result (name %q, %d missions)", resName(att.res), resLen(att.res))
				}
				where := "local"
				if att.sh != nil {
					where = att.sh.addr
				}
				d.logf("dispatch: cell %d attempt on %s failed: %v", att.idx, where, att.err)
				requeue(att.idx, now)
				continue
			}
			cs := &cellState{
				Index:   att.idx,
				Name:    att.res.Name,
				Results: att.res.Results,
				Plans:   att.res.Plans,
				Panics:  att.res.Panics,
			}
			if err := st.save(cs); err != nil {
				d.logf("dispatch: persisting cell %d: %v (resume granularity degraded)", att.idx, err)
			}
			doneCells[att.idx] = cs
			d.done.Add(1)
			if d.cfg.OnCellDone != nil {
				d.cfg.OnCellDone(len(doneCells), len(cells))
			}
		}
	}

	return assemble(nspec, cells, doneCells), nil
}

// resName and resLen render a possibly-nil result for diagnostics.
func resName(r *WorkResult) string {
	if r == nil {
		return ""
	}
	return r.Name
}

func resLen(r *WorkResult) int {
	if r == nil {
		return 0
	}
	return len(r.Results)
}

// pickShard returns a healthy shard with free capacity (round-robin-ish by
// map order; fairness doesn't affect results, only load spread).
func (d *Dispatcher) pickShard() *shard {
	d.mu.Lock()
	defer d.mu.Unlock()
	var best *shard
	for _, sh := range d.shards {
		if !sh.healthy || sh.inflight >= perShard {
			continue
		}
		if best == nil || sh.inflight < best.inflight || (sh.inflight == best.inflight && sh.addr < best.addr) {
			best = sh
		}
	}
	return best
}

// anyHealthy reports whether at least one registered shard is healthy.
func (d *Dispatcher) anyHealthy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, sh := range d.shards {
		if sh.healthy {
			return true
		}
	}
	return false
}

// probeLoop is the heartbeat: every HeartbeatEvery it probes each shard's
// health endpoint, marking a shard unhealthy after HeartbeatMisses
// consecutive failures and healthy again on the first success. Transitions
// wake the scheduling loop.
func (d *Dispatcher) probeLoop(ctx context.Context) {
	tick := time.NewTicker(d.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		d.mu.Lock()
		addrs := make([]string, 0, len(d.shards))
		for addr := range d.shards {
			addrs = append(addrs, addr)
		}
		d.mu.Unlock()
		changed := false
		for _, addr := range addrs {
			err := d.client.Health(ctx, addr)
			d.mu.Lock()
			sh := d.shards[addr]
			if sh != nil {
				if err == nil {
					if !sh.healthy {
						changed = true
						d.logf("dispatch: shard %s healthy again", addr)
					}
					sh.healthy, sh.misses = true, 0
				} else {
					sh.misses++
					if sh.healthy && sh.misses >= d.cfg.HeartbeatMisses {
						sh.healthy = false
						changed = true
						d.logf("dispatch: shard %s unhealthy after %d missed heartbeats: %v", addr, sh.misses, err)
					}
				}
			}
			d.mu.Unlock()
		}
		if changed {
			d.wakeUp()
		}
	}
}

// assemble rebuilds the full matrix.Result from per-cell states. Worker-
// local panic indices are remapped onto the matrix's flat mission indexing
// so the assembled Result matches matrix.Run's shape exactly.
func assemble(spec matrix.Spec, cells []matrix.Cell, done map[int]*cellState) *matrix.Result {
	res := &matrix.Result{Spec: spec}
	for i, c := range cells {
		cs := done[i]
		res.Cells = append(res.Cells, matrix.CellResult{
			Cell:     c,
			Campaign: &qof.Campaign{Name: c.Name(), Results: cs.Results},
			Plans:    cs.Plans,
		})
		for _, p := range cs.Panics {
			res.Panics = append(res.Panics, campaign.MissionPanic{
				Index: i*spec.Runs + p.Index,
				Value: p.Value,
				Stack: p.Stack,
			})
		}
	}
	sort.Slice(res.Panics, func(a, b int) bool { return res.Panics[a].Index < res.Panics[b].Index })
	return res
}
