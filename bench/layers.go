package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/env"
	"mavfi/internal/geom"
	"mavfi/internal/octomap"
	"mavfi/internal/perception"
	"mavfi/internal/pipeline"
	"mavfi/internal/planning"
	"mavfi/internal/platform"
	"mavfi/internal/pointcloud"
	"mavfi/internal/record"
	"mavfi/internal/sim"
	"mavfi/internal/trace"
)

// flown is one cell of a workload's output, with the spec it ran under.
type flown struct {
	spec matrix.Spec
	cr   matrix.CellResult
}

func flownCells(spec matrix.Spec, res *matrix.Result) []flown {
	spec = spec.Normalized()
	out := make([]flown, 0, len(res.Cells))
	for _, cr := range res.Cells {
		out = append(out, flown{spec, cr})
	}
	return out
}

// reflights is how many missions of each cell the -trace pass re-flies.
const reflights = 2

// Replay constants the mission loop also uses (internal/pipeline): the
// voxel size, the near-field share of the camera range, the planning
// altitude band and the cruise altitude.
const (
	mapResolution = 0.5
	nearFieldFrac = 0.3
	planZMin      = 1.2
	cruiseAlt     = 2.5
)

// kernelStats accumulates the kernel replay's calls and host time (ns).
type kernelStats struct {
	captures, inserts, rays, checks, plans, planFails, steps           int
	captureNS, generateNS, insertNS, checkNS, planNS, smoothNS, stepNS float64
}

func (k *kernelStats) totalNS() float64 {
	return k.captureNS + k.generateNS + k.insertNS + k.checkNS + k.planNS + k.smoothNS + k.stepNS
}

// mapChecker is the benchmark's own planning.CollisionChecker over a
// replayed map: the octree queries restricted to the mission's planning
// altitude band, with the class cache armed per plan as the mission does.
type mapChecker struct {
	tree       *octomap.Tree
	policy     octomap.QueryPolicy
	zMin, zMax float64
}

func (c *mapChecker) BeginPlan() { c.tree.EnableClassCache() }

func (c *mapChecker) PointFree(p geom.Vec3) bool {
	return p.Z >= c.zMin && p.Z <= c.zMax && c.tree.PointFree(p, c.policy)
}

func (c *mapChecker) SegmentFree(a, b geom.Vec3) bool {
	if a.Z < c.zMin || a.Z > c.zMax || b.Z < c.zMin || b.Z > c.zMax {
		return false
	}
	return c.tree.SegmentFree(a, b, c.policy)
}

// replayKernels drives a recorded mission trace through the public kernels:
// a depth capture, point-cloud generation and OctoMap insertion on the map
// cadence, a collision check every airborne tick, plan and smooth at every
// replan event, and a physics step per tick. Sensor noise is drawn afresh,
// so the replayed maps and plans only approximate the mission's.
func replayKernels(w *env.World, tr *trace.Trace, spec matrix.Spec, seed *pipeline.MapSeed, missionSeed int64, k *kernelStats) {
	plat := platform.I9()
	vp := sim.DefaultParams()
	cam := sim.DefaultDepthCamera()
	mapPeriod := pipeline.MapPeriod(plat)
	rng := rand.New(rand.NewSource(missionSeed))

	var tree *octomap.Tree
	if seed != nil {
		tree = seed.Snapshot().Fork()
	} else {
		tree = octomap.New(w.Bounds, mapResolution, octomap.DefaultParams())
	}
	nearRadius := 0.0
	if spec.NearFieldStride > 1 {
		nearRadius = nearFieldFrac * cam.MaxRange
	}
	cc := &mapChecker{
		tree:   tree,
		policy: octomap.QueryPolicy{UnknownIsFree: true, Radius: vp.Radius + 0.2},
		zMin:   planZMin,
		zMax:   math.Min(w.Bounds.Max.Z-1, cruiseAlt+2.5),
	}
	checker := perception.NewChecker(vp.Radius)
	planner := planning.NewRRTStar(planning.DefaultConfig(w.Bounds))
	smoother := planning.NewSmoother(pipeline.CruiseSpeed(plat, vp, cam.MaxRange, mapPeriod))
	goal := planning.NewMission(w.Goal, cruiseAlt, w.GoalTolerance).NavGoal()

	gen := pointcloud.NewGenerator()
	frame := &sim.DepthImage{}
	cloud := &pointcloud.Cloud{}
	var scan []octomap.RayPoint
	var path []geom.Vec3
	airborne := false
	nextMap := 0.0
	for _, s := range tr.Samples {
		if s.T >= nextMap {
			nextMap = s.T + mapPeriod
			t := time.Now()
			cam.CaptureInto(frame, w, s.Pos, s.Yaw, rng)
			t1 := time.Now()
			gen.GenerateInto(cloud, frame, nil)
			t2 := time.Now()
			scan = scan[:0]
			for _, p := range cloud.Points {
				scan = append(scan, octomap.RayPoint{End: p.P, Hit: p.Hit})
			}
			t3 := time.Now()
			tree.InsertCloudApprox(cloud.Origin, scan, nearRadius, spec.NearFieldStride, spec.MapSeed == "memo")
			k.insertNS += float64(time.Since(t3))
			k.captureNS += float64(t1.Sub(t))
			k.generateNS += float64(t2.Sub(t1))
			k.captures++
			k.inserts++
			k.rays += len(scan)
		}
		airborne = airborne || s.Pos.Z >= cruiseAlt-0.3
		if airborne {
			t := time.Now()
			checker.Check(tree, s.Pos, s.Vel, path, nil)
			k.checkNS += float64(time.Since(t))
			k.checks++
		}
		if strings.Contains(s.Event, "replan") {
			start := s.Pos
			if start.Z < planZMin {
				start.Z = planZMin + 0.1
			}
			t := time.Now()
			p, err := planner.Plan(start, goal, cc, rng)
			k.planNS += float64(time.Since(t))
			k.plans++
			if err != nil {
				k.planFails++
				path = nil
				continue
			}
			t = time.Now()
			path = smoother.Smooth(p, cc, rng).Positions()
			k.smoothNS += float64(time.Since(t))
		}
	}

	// Physics steps are too short to time one by one: replay the recorded
	// velocity commands through a fresh vehicle in one timed loop.
	mav := sim.NewMAV(w, vp)
	t := time.Now()
	for _, s := range tr.Samples {
		mav.Step(sim.VelocityCmd{Vel: s.Vel, Yaw: s.Yaw}, 0.1)
	}
	k.stepNS += float64(time.Since(t))
	k.steps += len(tr.Samples)
}

// timedSink wraps the record writer as the mission's trace.Sink and times
// every Append.
type timedSink struct {
	w     *record.Writer
	ns    float64
	calls int
}

func (s *timedSink) Append(smp trace.Sample) {
	t := time.Now()
	s.w.Append(smp)
	s.ns += float64(time.Since(t))
	s.calls++
}

// countWriter counts the bytes a recording would write.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// attribute is the -trace pass's layer attribution, timed from outside the
// program around calls into each layer's public functions:
//
//   - missions 0 and 1 of every cell re-fly one at a time through
//     pipeline.RunMission, and each re-flight must equal the workload's
//     result; mission 0 records through record.NewWriter;
//   - detector-bearing re-flights replay their recorded state deltas into a
//     fresh detector clone, whose alarm count must equal the mission's;
//   - mission 0's trace replays through the kernels (replayKernels).
func (r *run) attribute(assets *matrix.Assets, cells []flown, missions int, wallMS float64) {
	ctx := context.Background()
	runner := campaign.New(campaign.WithWorkers(loadWorkers))

	worldMS := 0.0
	built := map[string]bool{}
	fresh := matrix.NewAssets()
	for _, c := range cells {
		if !built[c.cr.Cell.World] {
			built[c.cr.Cell.World] = true
			t := time.Now()
			if err := warmWorlds(fresh, []string{c.cr.Cell.World}); err != nil {
				r.rep.fail("layers: %v", err)
				return
			}
			worldMS += msSince(t)
		}
	}
	r.rep.layer("matrix.world_ms", "ms", worldMS)

	var (
		k                           kernelStats
		missionMS, ticks, plans     []float64
		equal                       int
		mission0MS, detectModelS    float64
		observeNS, observeNS0       float64
		observes                    int
		alarmOK, alarmRun           int
		appendNS, closeMS, recBytes float64
		appends, recorded           int
	)
	for _, c := range cells {
		cell := c.cr.Cell
		w, err := assets.World(cell.World)
		if err != nil {
			r.rep.fail("layers: %v", err)
			return
		}
		var seed *pipeline.MapSeed
		if c.spec.MapSeed != "off" {
			if seed, err = assets.MapSeed(cell.World); err != nil {
				r.rep.fail("layers: %v", err)
				return
			}
		}
		mk, err := assets.Detector(ctx, runner, cell.Detector, c.spec.Seed, c.spec.TrainEnvs)
		if err != nil {
			r.rep.fail("layers: %v", err)
			return
		}
		for j := 0; j < reflights && j < len(c.cr.Campaign.Results); j++ {
			cfg := pipeline.Config{
				World:           w,
				Seed:            cell.MissionSeed(j),
				MaxMissionS:     c.spec.MaxMissionS,
				MapSeed:         seed,
				NearFieldStride: c.spec.NearFieldStride,
				MemoSkip:        c.spec.MapSeed == "memo",
				RecordStates:    true,
			}
			cfg.SetFault(c.cr.Plans[j])
			if mk != nil {
				// The clone goes in unwrapped: the mission loop type-switches
				// on *detect.GAD to charge detection cost.
				cfg.Detector = mk()
				cfg.DetectOnly = !cell.Recovery
			}
			var sink *timedSink
			var wr *record.Writer
			cw := &countWriter{}
			if j == 0 {
				h, err := record.NewHeader(cfg)
				if err == nil {
					wr, err = record.NewWriter(cw, h, record.Options{})
				}
				if err != nil {
					r.rep.fail("layers: recording %s mission %d: %v", cell.Name(), j, err)
					return
				}
				sink = &timedSink{w: wr}
				cfg.Sink = sink
			}
			sp := r.spans.begin("pipeline.RunMission", fmt.Sprintf("%s/%d", cell.Name(), j), 0)
			t := time.Now()
			res := pipeline.RunMission(cfg)
			ms := msSince(t)
			r.spans.end(sp)
			if wr != nil {
				wr.SetResult(res)
				t := time.Now()
				if err := wr.Close(); err != nil {
					r.rep.fail("layers: closing recording: %v", err)
				}
				closeMS += msSince(t)
				appendNS += sink.ns
				appends += sink.calls
				recBytes += float64(cw.n)
				recorded++
			}
			want := c.cr.Campaign.Results[j]
			if fmt.Sprintf("%#v", res.Metrics) == fmt.Sprintf("%#v", want) {
				equal++
			} else {
				r.rep.fail("re-flight of %s mission %d differs from the workload's result", cell.Name(), j)
			}
			missionMS = append(missionMS, ms)
			ticks = append(ticks, math.Round(res.FlightTimeS/0.1))
			plans = append(plans, float64(res.Plans))

			if mk != nil {
				d := mk()
				alarms := 0
				t := time.Now()
				for _, dl := range res.StateDeltas {
					alarms += len(d.Observe(0, dl))
				}
				ns := float64(time.Since(t))
				observeNS += ns
				observes += len(res.StateDeltas)
				if j == 0 {
					observeNS0 += ns
					detectModelS += detectCostS(cell.Detector) * float64(len(res.StateDeltas))
				}
				alarmRun++
				if alarms == want.Alarms {
					alarmOK++
				} else {
					r.rep.fail("detector replay of %s mission %d: %d alarms, mission had %d", cell.Name(), j, alarms, want.Alarms)
				}
			}
			if j == 0 && res.Trace != nil {
				mission0MS += ms
				sp := r.spans.begin("kernel replay", fmt.Sprintf("%s/%d", cell.Name(), j), 0)
				replayKernels(w, res.Trace, c.spec, seed, cfg.Seed, &k)
				r.spans.end(sp)
			}
		}
	}

	perMission := func(count int) float64 { return ratio(float64(count), float64(len(cells))) }
	r.rep.layer("campaign.parallel_eff", "frac", ratio(mean(missionMS)*float64(missions), float64(runtime.GOMAXPROCS(0))*wallMS))
	r.rep.layer("pipeline.mission_ms_p50", "ms", median(missionMS))
	r.rep.layer("pipeline.mission_ms_p90", "ms", quantile(missionMS, 0.9))
	r.rep.layer("pipeline.host_us_per_tick", "us", ratio(sum(missionMS)*1e3, sum(ticks)))
	r.rep.layer("pipeline.ticks_per_mission", "count", mean(ticks))
	r.rep.layer("pipeline.plans_per_mission", "count", mean(plans))
	r.rep.layer("pipeline.reflight_equal_frac", "frac", ratio(float64(equal), float64(len(missionMS))))
	// Mission 0 of each cell is both re-flown and replayed: the share of its
	// host time the replayed kernels and detector do not cover.
	r.rep.layer("pipeline.unattributed_frac", "frac", 1-ratio((k.totalNS()+observeNS0)/1e6, mission0MS))
	r.rep.layer("sim.capture_us", "us", ratio(k.captureNS/1e3, float64(k.captures)))
	r.rep.layer("sim.captures_per_mission", "count", perMission(k.captures))
	r.rep.layer("sim.step_us", "us", ratio(k.stepNS/1e3, float64(k.steps)))
	r.rep.layer("pointcloud.generate_us", "us", ratio(k.generateNS/1e3, float64(k.captures)))
	r.rep.layer("octomap.insert_us", "us", ratio(k.insertNS/1e3, float64(k.inserts)))
	r.rep.layer("octomap.inserts_per_mission", "count", perMission(k.inserts))
	r.rep.layer("octomap.rays_per_insert", "count", ratio(float64(k.rays), float64(k.inserts)))
	r.rep.layer("perception.check_us", "us", ratio(k.checkNS/1e3, float64(k.checks)))
	r.rep.layer("perception.checks_per_mission", "count", perMission(k.checks))
	r.rep.layer("planning.plan_ms", "ms", ratio(k.planNS/1e6, float64(k.plans)))
	r.rep.layer("planning.smooth_ms", "ms", ratio(k.smoothNS/1e6, float64(k.plans-k.planFails)))
	r.rep.layer("planning.plan_fail_frac", "frac", ratio(float64(k.planFails), float64(k.plans)))
	r.rep.layer("record.append_ns", "ns", ratio(appendNS, float64(appends)))
	r.rep.layer("record.close_ms", "ms", ratio(closeMS, float64(recorded)))
	r.rep.layer("record.bytes_per_mission", "B", ratio(recBytes, float64(recorded)))
	if alarmRun > 0 {
		r.rep.layer("detect.observe_us", "us", ratio(observeNS/1e3, float64(observes)))
		r.rep.layer("detect.observes_per_mission", "count", ratio(float64(observes), float64(alarmRun)))
		r.rep.layer("detect.replay_alarm_match", "frac", ratio(float64(alarmOK), float64(alarmRun)))
	} else {
		r.rep.info("detect: no detector on this workload")
	}
	r.modelShares(&k, observeNS0, detectModelS)

	if path, err := r.spans.write(r.out, r.workload, r.seed); err != nil {
		r.rep.info("writing spans: %v", err)
	} else {
		r.rep.info("spans written to %s", path)
	}
}

// modelShares prints each paper kernel's measured share of the replayed
// kernel time beside the internal/platform i9 model's share of simulated
// compute time for the same calls, for comparison with the paper's
// per-kernel breakdown. Control (path tracking) has no separate host
// timing here; the model's control share is printed on its own.
func (r *run) modelShares(k *kernelStats, detectNS, detectModelS float64) {
	p := platform.I9()
	type share struct {
		name            string
		measured, model float64
	}
	rows := []share{
		{"pointcloud", k.generateNS, p.PCGenS * float64(k.captures)},
		{"octomap", k.insertNS, p.OctoMapS * float64(k.inserts)},
		{"collision_check", k.checkNS, p.ColCheckS * float64(k.checks)},
		{"planning", k.planNS + k.smoothNS, p.PlanS * float64(k.plans)},
		{"detect", detectNS, detectModelS},
	}
	var mt, st float64
	for _, s := range rows {
		mt += s.measured
		st += s.model
	}
	for _, s := range rows {
		r.rep.info("kernel_share %s measured=%.4f model_i9=%.4f", s.name, ratio(s.measured, mt), ratio(s.model, st))
	}
	r.rep.info("kernel_share control model_i9_s_per_tick=%g (not timed separately)", p.ControlS)
}

// detectCostS is the i9 model's simulated cost of one detector observation.
func detectCostS(detector string) float64 {
	if detector == "gad" {
		return platform.I9().GADObserveS
	}
	return platform.I9().AADObserveS
}
