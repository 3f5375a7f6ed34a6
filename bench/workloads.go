package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/qof"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(*run) *report
}

// workloads is the fixed list, in the order an all-workload run uses.
var workloads = []workload{
	{"sweep-exact", runSweepExact},
	{"sweep-memo", runSweepMemo},
	{"protected", runProtected},
	{"served", runServed},
	{"dispatched", runDispatched},
}

func lookup(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// Load shape: the machine this benchmark is sized for has 2 cores, so every
// workload keeps at most 2 goroutines doing mission work.
const loadWorkers = 2

var (
	allWorlds = []string{"sparse", "dense", "factory", "farm"}
	// sweepTargets is the zoo's physical families plus the state family
	// restricted to wp_x. Unrestricted state cells flip bits of wp_yaw too,
	// and about 1 state mission in 1000 then hangs in geom.WrapAngle; a run
	// with a hang fails, so the benchmark keeps to targets that cannot hang.
	sweepTargets     = mustTargets("sensor,actuator,wind,state:wp_x")
	protectedTargets = mustTargets("kernel:pid,kernel:colcheck,state:wp_x")
)

func mustTargets(s string) []matrix.Target {
	t, err := matrix.ParseTargets(s)
	if err != nil {
		panic(err)
	}
	return t
}

func mustSeverities(s string) []matrix.Severity {
	sv, err := matrix.ParseSeverities(s)
	if err != nil {
		panic(err)
	}
	return sv
}

// roundSeed derives round i's matrix seed from the workload seed, so every
// round flies different missions and a run averages over many of them.
func roundSeed(seed int64, i int) int64 { return campaign.MissionSeed(seed, i) }

// runsPerCell picks the per-cell mission count: full size, or 1 with -quick.
func (r *run) runsPerCell(full int) int {
	if r.quick {
		return 1
	}
	return full
}

// round is one matrix run of a workload's timed phase.
type round struct {
	spec   matrix.Spec
	res    *matrix.Result
	wallMS float64
}

// csvBytes renders every cell CSV plus the summary CSV of a result — the
// artifacts whose bytes the ROADMAP's identity rules are about.
func csvBytes(res *matrix.Result) []byte {
	var b bytes.Buffer
	for i := range res.Cells {
		b.WriteString(res.Cells[i].CSV())
	}
	b.WriteString(res.SummaryCSV())
	return b.Bytes()
}

// tally is a run's mission bookkeeping.
type tally struct {
	missions, failed    int
	flightS             float64
	outcomes            [qof.NumOutcomes]int
	digest              [32]byte
	allocStart, allocAt uint64
	// wallMS is the timed phase's total wall time. Throughput is total work
	// over total time: on a host whose speed drifts, that varies less from
	// run to run than a median over rounds of different missions.
	wallMS float64
	// rates are the per-window missions/s (one window per round), printed
	// so a reader can see how the host's speed moved during the run.
	rates []float64
}

// add counts one window's mission results, which took wallMS.
func (t *tally) add(ms []qof.Metrics, wallMS float64) {
	for _, m := range ms {
		t.flightS += m.FlightTimeS
		t.outcomes[m.Outcome]++
		if m.Outcome == qof.Panicked || m.Outcome == qof.DeadlineExceeded {
			t.failed++
		}
	}
	t.missions += len(ms)
	t.wallMS += wallMS
	t.rates = append(t.rates, ratio(float64(len(ms)), wallMS/1e3))
}

// results flattens a matrix result's mission metrics.
func results(res *matrix.Result) []qof.Metrics {
	var out []qof.Metrics
	for _, cr := range res.Cells {
		out = append(out, cr.Campaign.Results...)
	}
	return out
}

// report writes the end-to-end metrics every workload shares, plus the
// simulated statistics as info lines (simulated results, not gated).
func (t *tally) report(r *run, jobMS []float64) {
	r.rep.metric("missions_per_s", "missions/s", ratio(float64(t.missions), t.wallMS/1e3))
	r.rep.metric("sim_s_per_host_s", "s/s", ratio(t.flightS, t.wallMS/1e3))
	r.rep.metric("job_ms_p50", "ms", median(jobMS))
	r.rep.metric("alloc_mb_per_mission", "MB", ratio(float64(t.allocAt-t.allocStart)/1e6, float64(t.missions)))
	r.rep.info("windows=%d jobs=%d missions=%d wall_s=%.3f", len(t.rates), len(jobMS), t.missions, t.wallMS/1e3)
	r.rep.info("window missions_per_s %.1f", t.rates)
	var outs []string
	for o, n := range t.outcomes {
		if n > 0 {
			outs = append(outs, fmt.Sprintf("%s=%d", qof.Outcome(o), n))
		}
	}
	r.rep.info("simulated outcomes %v mean_flight_s=%.4f", outs, ratio(t.flightS, float64(t.missions)))
	r.rep.info("csv_sha256=%x", t.digest)
	r.rep.Attempted += t.missions
	r.rep.Failed += t.failed
}

// runRounds runs rounds until the timed phase is over (at least one) and
// returns them with the run's tally. exec runs round i's spec on the
// workload's surface.
func (r *run) runRounds(specFor func(i int) matrix.Spec, exec func(i int, spec matrix.Spec) (*matrix.Result, error)) ([]round, *tally) {
	t := &tally{allocStart: allocBytes()}
	h := sha256.New()
	var rounds []round
	var jobs []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < r.duration(); i++ {
		spec := specFor(i)
		t0 := time.Now()
		res, err := exec(i, spec)
		ms := msSince(t0)
		if err != nil {
			r.rep.fail("round %d: %v", i, err)
			break
		}
		t.add(results(res), ms)
		h.Write(csvBytes(res))
		rounds = append(rounds, round{spec: spec, res: res, wallMS: ms})
		jobs = append(jobs, ms)
	}
	t.allocAt = allocBytes()
	copy(t.digest[:], h.Sum(nil))
	t.report(r, jobs)
	return rounds, t
}

// runOn executes rounds in process: matrix.RunOn on the workload's assets
// with two workers, tracking every mission until its result arrives.
func (r *run) runOn(assets *matrix.Assets) func(int, matrix.Spec) (*matrix.Result, error) {
	return func(i int, spec matrix.Spec) (*matrix.Result, error) {
		spec.Workers = loadWorkers
		cells := matrix.Cells(spec)
		runs := spec.Normalized().Runs
		key := func(m int) string {
			return fmt.Sprintf("round %03d cell %03d %s mission %03d", i, m/runs, cells[m/runs].Name(), m%runs)
		}
		for m := 0; m < len(cells)*runs; m++ {
			r.prog.begin(key(m))
		}
		spec.OnMission = func(m int, _ qof.Metrics) { r.prog.end(key(m)) }
		sp := r.spans.begin("matrix.RunOn", fmt.Sprintf("round-%d", i), 0)
		defer r.spans.end(sp)
		return matrix.RunOn(context.Background(), spec, assets)
	}
}

// checkWidth re-runs the first world of round 0 on one worker and requires
// its cell CSVs to equal the two-worker round byte for byte.
func (r *run) checkWidth(assets *matrix.Assets, rd round) {
	sub := firstWorld(rd.spec)
	sub.Workers = 1
	res, err := matrix.RunOn(context.Background(), sub, assets)
	if err != nil {
		r.rep.fail("width check: %v", err)
		return
	}
	if name, ok := sameCells(rd.res, res); !ok {
		r.rep.fail("cell %s differs between 1 and %d workers", name, loadWorkers)
		return
	}
	r.rep.info("check width: %d cells identical at 1 and %d workers", len(res.Cells), loadWorkers)
}

// firstWorld restricts spec to its first world. Cell seeds hash the cell
// name, so the restricted spec flies exactly that world's cells.
func firstWorld(spec matrix.Spec) matrix.Spec {
	spec.Worlds = spec.Worlds[:1]
	spec.OnMission = nil
	return spec
}

// sameCells reports whether every cell of sub has the same CSV bytes in
// full, naming the first cell that differs.
func sameCells(full, sub *matrix.Result) (string, bool) {
	want := map[string]string{}
	for i := range full.Cells {
		want[full.Cells[i].Cell.Name()] = full.Cells[i].CSV()
	}
	for i := range sub.Cells {
		if name := sub.Cells[i].Cell.Name(); sub.Cells[i].CSV() != want[name] {
			return name, false
		}
	}
	return "", true
}

// warmWorlds builds the named worlds into assets, including each world's
// lazily built obstacle index, so the first mission pays for neither.
func warmWorlds(assets *matrix.Assets, names []string) error {
	for _, n := range names {
		w, err := assets.World(n)
		if err != nil {
			return err
		}
		w.Collides(w.Start, 0.1)
	}
	return nil
}

// sweep runs the in-process sweep workloads: sweep-exact (map seeds off)
// and sweep-memo (golden-map seeds with memoization and near-field stride).
func sweep(r *run, mapSeed string, stride, runs int) *report {
	assets, cleanup, err := measureSetup(r, func() (*matrix.Assets, func(), error) {
		a := matrix.NewAssets()
		if err := warmWorlds(a, allWorlds); err != nil {
			return nil, nil, err
		}
		if mapSeed != "off" {
			err := r.stage("matrix.mapseed_ms", func() error {
				for _, w := range allWorlds {
					if _, err := a.MapSeed(w); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
		}
		return a, func() {}, nil
	})
	defer cleanup()
	if err != nil {
		r.rep.fail("setup: %v", err)
		return r.rep
	}
	r.roundsChecked(assets, func(i int) matrix.Spec {
		return matrix.Spec{
			Worlds:          allWorlds,
			Targets:         sweepTargets,
			Severities:      mustSeverities("low,high"),
			MapSeed:         mapSeed,
			NearFieldStride: stride,
			Runs:            r.runsPerCell(runs),
			Seed:            roundSeed(r.seed, i),
		}
	})
	return r.rep
}

// roundsChecked runs an in-process workload's rounds, checks round 0 across
// worker widths and, with -trace, attributes round 0 to the layers.
func (r *run) roundsChecked(assets *matrix.Assets, specFor func(i int) matrix.Spec) {
	rounds, t := r.runRounds(specFor, r.runOn(assets))
	if len(rounds) == 0 {
		return
	}
	r.checkWidth(assets, rounds[0])
	if r.trace {
		r.attribute(assets, flownCells(rounds[0].spec, rounds[0].res), t.missions, t.wallMS)
	}
}

func runSweepExact(r *run) *report { return sweep(r, "off", 0, 3) }

func runSweepMemo(r *run) *report { return sweep(r, "memo", 2, 6) }

// protectedSpec is round i of the paper's Table I scenario: kernel and
// state faults at the uniform single-bit severity, under both detectors,
// with recovery on and off. Kernel faults go to path tracking (pid, the
// control stage) and collision checking (colcheck, perception): a planner
// fault can corrupt a way-point yaw into a huge finite value, an octomap
// fault a ray endpoint, and either can stall a mission (geom.WrapAngle, a
// ray walk across the corrupted extent). Neither pid nor colcheck stalled
// in 5712 probed missions at severity high.
//
// Detector training and kernel calibration depend on the matrix seed, so
// it stays fixed and they happen once, in set-up, as the same work on every
// run. The workload seed and the round enter through the severity level's
// name instead, "med-s<seed>-r<i>" at the med scale 0.6: cell seeds hash the
// cell name, so each run and round flies new missions at the same severity.
func (r *run) protectedSpec(i int) matrix.Spec {
	train := 50
	if r.quick {
		train = 4
	}
	return matrix.Spec{
		Worlds:     []string{"sparse", "dense"},
		Targets:    protectedTargets,
		Severities: []matrix.Severity{{Name: fmt.Sprintf("med-s%d-r%d", r.seed, i), Scale: mustSeverities("med")[0].Scale}},
		Detectors:  []string{"gad", "aad"},
		Recoveries: []bool{true, false},
		Runs:       r.runsPerCell(4),
		Seed:       protectedMatrixSeed,
		TrainEnvs:  train,
	}
}

// protectedMatrixSeed is the protected workload's fixed matrix seed.
const protectedMatrixSeed = 1

func runProtected(r *run) *report {
	spec := r.protectedSpec(0)
	assets, cleanup, err := measureSetup(r, func() (*matrix.Assets, func(), error) {
		a := matrix.NewAssets()
		if err := warmWorlds(a, spec.Worlds); err != nil {
			return nil, nil, err
		}
		err := r.stage("matrix.calibrate_ms", func() error {
			for _, w := range spec.Worlds {
				if _, err := a.Counter(w, spec.Seed, spec.MaxMissionS); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			err = r.stage("matrix.train_ms", func() error {
				runner := campaign.New(campaign.WithWorkers(loadWorkers))
				for _, d := range spec.Detectors {
					if _, err := a.Detector(context.Background(), runner, d, spec.Seed, spec.TrainEnvs); err != nil {
						return err
					}
				}
				return nil
			})
		}
		return a, func() {}, err
	})
	defer cleanup()
	if err != nil {
		r.rep.fail("setup: %v", err)
		return r.rep
	}
	r.roundsChecked(assets, r.protectedSpec)
	return r.rep
}
