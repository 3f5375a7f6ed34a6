package pipeline

import (
	"math"
	"math/rand"

	"mavfi/internal/control"
	"mavfi/internal/detect"
	"mavfi/internal/env"
	"mavfi/internal/faultinject"
	"mavfi/internal/geom"
	"mavfi/internal/octomap"
	"mavfi/internal/perception"
	"mavfi/internal/planning"
	"mavfi/internal/pointcloud"
	"mavfi/internal/qof"
	"mavfi/internal/ros"
	"mavfi/internal/sim"
	"mavfi/internal/trace"
)

// mapAdapter exposes the OctoMap to the motion planners through the
// planning.CollisionChecker interface, restricted to the planning altitude
// band. Every probe it forwards classifies voxels from the exact class each
// voxel's code carries, which scan integration keeps current in the same
// writes that change the map, so there is nothing to arm per plan.
type mapAdapter struct {
	tree   *octomap.Tree
	policy octomap.QueryPolicy
	zMin   float64
	zMax   float64
}

func (a *mapAdapter) PointFree(p geom.Vec3) bool {
	if p.Z < a.zMin || p.Z > a.zMax {
		return false
	}
	return a.tree.PointFree(p, a.policy)
}

func (a *mapAdapter) SegmentFree(p, q geom.Vec3) bool {
	if p.Z < a.zMin || p.Z > a.zMax || q.Z < a.zMin || q.Z > a.zMax {
		return false
	}
	return a.tree.SegmentFree(p, q, a.policy)
}

// runner holds the full closed-loop mission state: the ROS topics, kernels,
// simulator, injectors, and detector bookkeeping.
type runner struct {
	cfg   Config
	world *env.World

	// Simulator.
	mav     *sim.MAV
	camera  sim.DepthCamera
	imu     *sim.IMU
	power   sim.PowerModel
	battery *sim.Battery

	// Kernels.
	tree    *octomap.Tree
	adapter *mapAdapter
	pcgen   *pointcloud.Generator
	checker *perception.Checker
	motion  planning.Planner
	smooth  *planning.Smoother
	tracker *control.Tracker
	mission *planning.Mission

	// Middleware.
	depthT  *ros.Topic[*sim.DepthImage]
	cloudT  *ros.Topic[*pointcloud.Cloud]
	reportT *ros.Topic[perception.Report]
	trajT   *ros.Topic[*planning.Trajectory]
	wpT     *ros.Topic[waypointMsg]

	// Fault injection. kInj/sInj are the paper's compute-fault injectors;
	// senInj/actInj/windInj are the zoo's physical-fault injectors (all
	// nil-safe opt-ins: a nominal mission takes bit-identical paths).
	kInj    *faultinject.Injector
	sInj    *faultinject.StateInjector
	senInj  *faultinject.SensorInjector
	actInj  *faultinject.ActuatorInjector
	windInj *faultinject.WindInjector

	// Detection.
	prep     detect.Preprocessor
	suppress int // ticks to skip detection after legitimate discontinuities

	// Mission state.
	t           float64
	tick        float64
	cruise      float64
	mapPeriod   float64
	nextMapT    float64
	busyUntil   float64 // compute stall: vehicle hovers while kernels run
	lastPlanT   float64
	forceReplan bool
	planPending bool // replan decided this tick, executes next tick unless
	// a detector recovery vetoes it (detection latency beats planner start)

	// Progress watchdog: a replan fires when trajectory progress stalls
	// (e.g. the tracker oscillates around a corrupted way-point).
	lastProgressT float64
	lastNearest   int

	curTraj    *planning.Trajectory
	trajGen    int // trajectory generation counter, guards stale restores
	lastReport perception.Report
	goodReport perception.Report
	goodTarget planning.Waypoint
	goodGen    int
	hasGood    bool
	curTarget  planning.Waypoint
	curTargetI int
	hasTarget  bool

	windBase geom.Vec3

	// nearRadius is the near-field radius for NearFieldStride ray
	// subsampling (0 when the stride is off; InsertCloudApprox ignores
	// it at stride <= 1).
	nearRadius float64

	// Per-mission scratch buffers for the perception hot path: the depth
	// frame, the generated cloud, the octree scan batch, and the remaining-
	// trajectory positions are reused every tick, keeping the steady-state
	// loop allocation-free. One set per mission (not shared) so PR 1's
	// parallel campaign workers never race on them.
	frame   *sim.DepthImage
	cloud   *pointcloud.Cloud
	scanBuf []octomap.RayPoint
	posBuf  []geom.Vec3

	// checkAudit, when non-nil, receives every collision check's inputs and
	// report. Test instrumentation only (the way-point reuse test re-runs
	// each check with a fresh scan through it); nil in production.
	checkAudit func(pos, vel geom.Vec3, traj []geom.Vec3, from int, rep perception.Report)

	rngs struct {
		sensor, planner *rand.Rand
	}

	acct qof.Metrics
	res  Result
	trc  *trace.Trace
	// sinkFlushed counts the trace samples already streamed to cfg.Sink.
	// Samples are streamed only once finalized (no later MarkEvent can
	// touch them): everything up to but excluding the newest sample before
	// the next Add, and the remainder at mission end. See trace.Sink.
	sinkFlushed int
	deltas      [][detect.NumStates]float64
}

// waypointMsg is the "Multidoftraj" stream message: the pursued way-point
// plus its trajectory index (so interceptors can write corruption back into
// the trajectory, where the inter-kernel state actually lives).
type waypointMsg struct {
	WP    planning.Waypoint
	Index int
}

// RunMission flies one complete mission under cfg and returns its QoF
// metrics and bookkeeping.
func RunMission(cfg Config) Result {
	r := newRunner(cfg)
	return r.run()
}

func newRunner(cfg Config) *runner {
	cfg = cfg.withDefaults()
	r := &runner{cfg: cfg, world: cfg.World, tick: cfg.TickS}
	r.rngs.sensor, r.rngs.planner = missionRNGs(cfg.Seed)

	vp := sim.DefaultParams()
	r.mav = sim.NewMAV(cfg.World, vp)
	r.camera = sim.DefaultDepthCamera()
	r.imu = sim.DefaultIMU()
	r.power = sim.DefaultPowerModel()
	r.power.ComputeW = cfg.Platform.PowerW
	r.battery = sim.NewBattery(0)

	r.mapPeriod = MapPeriod(cfg.Platform)
	r.cruise = CruiseSpeed(cfg.Platform, vp, r.camera.MaxRange, r.mapPeriod)

	if cfg.MapSeed != nil && !cfg.MapSeed.snap.Matches(cfg.World.Bounds, mapResolution) {
		panic("pipeline: MapSeed world geometry does not match cfg.World")
	}
	// An empty map of the world, or in approximate mode a fork of its golden
	// map (a memcpy of its bricks and grids), on a tree drawn from the free list;
	// finish returns it.
	r.tree = missionTree(cfg)
	if cfg.NearFieldStride > 1 {
		r.nearRadius = nearFieldFrac * r.camera.MaxRange
	}
	r.adapter = &mapAdapter{
		tree:   r.tree,
		policy: octomap.QueryPolicy{UnknownIsFree: true, Radius: vp.Radius + 0.2},
		zMin:   1.2,
		zMax:   math.Min(cfg.World.Bounds.Max.Z-1, cfg.CruiseAlt+2.5),
	}
	r.pcgen = pointcloud.NewGenerator()
	r.checker = perception.NewChecker(vp.Radius)
	r.frame = &sim.DepthImage{}
	r.cloud = &pointcloud.Cloud{}

	pcfg := planning.DefaultConfig(cfg.World.Bounds)
	switch cfg.Planner {
	case PlannerRRT:
		r.motion = planning.NewRRT(pcfg)
	case PlannerRRTConnect:
		r.motion = planning.NewRRTConnect(pcfg)
	default:
		r.motion = planning.NewRRTStar(pcfg)
	}
	r.smooth = planning.NewSmoother(r.cruise)
	// The command clamp is the platform's safe cruise speed (visual
	// performance model): a slower companion computer may not fly as fast
	// as the airframe allows, because it could no longer stop within its
	// sensing envelope.
	r.tracker = control.NewTracker(r.cruise)
	r.mission = planning.NewMission(cfg.World.Goal, cfg.CruiseAlt, cfg.World.GoalTolerance)

	if cfg.KernelFault != nil {
		r.kInj = faultinject.NewInjector(*cfg.KernelFault)
	} else {
		r.kInj = faultinject.NewInjector(faultinject.Plan{})
	}
	if cfg.StateFault != nil {
		r.sInj = faultinject.NewStateInjector(*cfg.StateFault)
	}
	if cfg.SensorFault != nil {
		r.senInj = faultinject.NewSensorInjector(*cfg.SensorFault)
	}
	if cfg.ActuatorFault != nil {
		r.actInj = faultinject.NewActuatorInjector(*cfg.ActuatorFault)
		// Install the degradation at the command-issue output: it models
		// the airframe's actuators, so it applies to tracker commands (the
		// only ones with authority to degrade; hover/brake commands are
		// zero-velocity).
		r.tracker.Degrade = r.actInj.Degrade
	}
	if cfg.WindFault != nil {
		r.windInj = faultinject.NewWindInjector(*cfg.WindFault)
	}
	// Recording buffers are reserved to the mission tick budget up front
	// (the loop terminates at MaxMissionS, so they can never grow past it):
	// the per-tick Add/append paths then stay allocation-free, extending the
	// zero-alloc steady-state property to recorded missions.
	if cfg.Record || cfg.Sink != nil {
		r.trc = &trace.Trace{}
		r.trc.Reserve(r.tickBudget())
	}
	if cfg.RecordStates {
		r.deltas = make([][detect.NumStates]float64, 0, r.tickBudget())
	}

	// Per-mission ambient wind: a constant horizontal component plus
	// per-tick gusts, the physical variability that spreads golden flight
	// times (seeded, so campaigns stay reproducible).
	dir := r.rngs.sensor.Float64() * 2 * math.Pi
	mag := r.rngs.sensor.Float64() * 0.7
	r.windBase = geom.V(math.Cos(dir)*mag, math.Sin(dir)*mag, 0)

	r.buildGraph()
	return r
}

// tickBudget returns the maximum number of ticks a mission can run (the
// loop exits once r.t reaches MaxMissionS), plus slack for the terminal
// tick: the exact capacity the per-tick recording buffers need.
func (r *runner) tickBudget() int {
	return int(r.cfg.MaxMissionS/r.tick) + 2
}

// hook returns the fault hook for kernel k: the counting hook in
// calibration mode, otherwise the injector's (possibly nil) corruption hook.
func (r *runner) hook(k faultinject.Kernel) func(float64) float64 {
	if r.cfg.Counter != nil {
		return r.cfg.Counter.Hook(k)
	}
	return r.kInj.Hook(k)
}

// buildGraph wires the Fig. 2 edges on which one kernel's output reaches
// another, and installs the MAVFI interceptors on the two state streams:
//
//	/airsim/depth            depth camera → point_cloud_generation
//	/perception/point_cloud  point cloud generation → octomap_generation
//	/perception/collision    collision check → motion_planner (state faults)
//	/planning/multidoftraj   motion planner → path_tracking
//	/planning/waypoint       command issue → path_tracking write-back (state faults)
//
// Only subscribers are nodes, because a node is the crash domain a
// ros.CrashRecord names; the collision check, the planner and command issue
// run in the tick loop and publish. The IMU reading and the flight command
// go straight to the detector and the physics step, so they are not topics.
func (r *runner) buildGraph() {
	g := ros.NewGraph()
	pcgenN := g.NewNode("point_cloud_generation")
	mapN := g.NewNode("octomap_generation")
	planN := g.NewNode("motion_planner")
	ctrlN := g.NewNode("path_tracking")

	r.depthT = ros.OpenTopic[*sim.DepthImage](g, "/airsim/depth")
	r.cloudT = ros.OpenTopic[*pointcloud.Cloud](g, "/perception/point_cloud")
	r.reportT = ros.OpenTopic[perception.Report](g, "/perception/collision")
	r.trajT = ros.OpenTopic[*planning.Trajectory](g, "/planning/multidoftraj")
	r.wpT = ros.OpenTopic[waypointMsg](g, "/planning/waypoint")

	// Perception chain: depth → point cloud → OctoMap. Both kernels render
	// into per-mission scratch (r.cloud, r.scanBuf): delivery is synchronous
	// and no subscriber retains the message, so the buffers are free again
	// by the time the next frame arrives.
	r.depthT.Subscribe(pcgenN, func(img *sim.DepthImage) {
		r.pcgen.GenerateInto(r.cloud, img, r.hook(faultinject.KernelPCGen))
		r.cloud.T = r.t
		r.acct.ComputeS += r.cfg.Platform.PCGenS
		r.cloudT.Publish(r.cloud)
	})
	r.cloudT.Subscribe(mapN, func(c *pointcloud.Cloud) {
		hook := r.hook(faultinject.KernelOctoMap)
		r.scanBuf = r.scanBuf[:0]
		for _, p := range c.Points {
			pt := p.P
			if hook != nil {
				pt = geom.V(hook(pt.X), hook(pt.Y), hook(pt.Z))
			}
			r.scanBuf = append(r.scanBuf, octomap.RayPoint{End: pt, Hit: p.Hit})
		}
		// The approximate levers apply inside the insertion call, after
		// the fault hook has seen every point — an approximate mission's
		// kernel dynamic-value counts (and so its calibrated fault
		// indices) are identical to the exact mission's.
		r.tree.InsertCloudApprox(c.Origin, r.scanBuf, r.nearRadius, r.cfg.NearFieldStride, r.cfg.MemoSkip)
		r.acct.ComputeS += r.cfg.Platform.OctoMapS
	})

	// Collision reports flow to the planner node (stored state).
	r.reportT.Subscribe(planN, func(rep perception.Report) {
		r.lastReport = rep
	})

	// Trajectories install into the tracker. No detection suppression is
	// needed here: the sign+exponent preprocessing makes legitimate replan
	// discontinuities nearly invisible (way-point magnitudes stay in the
	// same exponent range), while fault-induced jumps cross exponents.
	r.trajT.Subscribe(ctrlN, func(tr *planning.Trajectory) {
		r.curTraj = tr
		r.trajGen++
		r.tracker.SetTrajectory(tr)
		r.lastNearest = 0
		r.lastProgressT = r.t
	})

	// MAVFI message-level injection (Fig. 4 mode): interceptors corrupt
	// inter-kernel states in transit.
	if r.sInj != nil {
		r.reportT.Intercept(func(rep perception.Report) perception.Report {
			rep.TimeToCollision = r.sInj.Corrupt(faultinject.StateTimeToCollision, rep.TimeToCollision)
			rep.FutureCollisionSeq = r.sInj.Corrupt(faultinject.StateFutureColSeq, rep.FutureCollisionSeq)
			return rep
		})
		r.wpT.Intercept(func(m waypointMsg) waypointMsg {
			m.WP.Pos.X = r.sInj.Corrupt(faultinject.StateWpX, m.WP.Pos.X)
			m.WP.Pos.Y = r.sInj.Corrupt(faultinject.StateWpY, m.WP.Pos.Y)
			m.WP.Pos.Z = r.sInj.Corrupt(faultinject.StateWpZ, m.WP.Pos.Z)
			m.WP.Yaw = r.sInj.Corrupt(faultinject.StateWpYaw, m.WP.Yaw)
			m.WP.Vel.X = r.sInj.Corrupt(faultinject.StateVelX, m.WP.Vel.X)
			m.WP.Vel.Y = r.sInj.Corrupt(faultinject.StateVelY, m.WP.Vel.Y)
			m.WP.Vel.Z = r.sInj.Corrupt(faultinject.StateVelZ, m.WP.Vel.Z)
			return m
		})
	}

	// The way-point stream feeds back into the tracker: corruption in
	// transit persists in the trajectory until the way-point is passed or
	// replaced (write-back).
	r.wpT.Subscribe(ctrlN, func(m waypointMsg) {
		r.curTarget = m.WP
		r.curTargetI = m.Index
		r.hasTarget = true
		r.tracker.SetWaypoint(m.Index, m.WP)
	})
}

// run executes the mission loop to termination.
func (r *runner) run() Result {
	injectedSeen := false
	for {
		r.t += r.tick
		r.kInj.SetTime(r.t)
		if r.sInj != nil {
			r.sInj.SetTime(r.t)
		}
		if r.senInj != nil {
			r.senInj.SetTime(r.t)
		}
		if r.actInj != nil {
			r.actInj.SetTime(r.t)
		}
		if r.windInj != nil {
			r.windInj.SetTime(r.t)
		}

		gust := geom.V(r.rngs.sensor.NormFloat64()*0.15, r.rngs.sensor.NormFloat64()*0.15, 0)
		wind := r.windBase.Add(gust)
		if r.windInj != nil {
			// Environment disturbance: the deterministic gust offset rides
			// on top of the mission's ambient wind.
			wind = wind.Add(r.windInj.Offset(r.t))
		}
		r.mav.SetWind(wind)

		st := r.mav.State()
		reading := r.imu.Read(st, r.rngs.sensor)
		// est is the state the PPC stack navigates by: ground truth, except
		// under a position-sensor fault, where perception, planning, and
		// control all fly on the corrupted estimate while the physics step,
		// the camera pose, and the success/crash oracles stay ground-truth —
		// only the vehicle's belief lies.
		est := st
		if r.senInj != nil {
			reading.Pos = r.senInj.CorruptPos(reading.Pos)
			est.Pos = r.senInj.CorruptPos(st.Pos)
		}

		// Execute a replan decided last tick (and not vetoed by the
		// detector's recovery in between).
		if r.planPending && r.t >= r.busyUntil {
			r.planPending = false
			r.runPlanner(est, false)
		}

		r.senseAndMap(st)
		phase := r.mission.Update(st.Pos)
		r.perceive(est, phase)
		r.maybePlan(est, phase)
		cmd := r.command(est, phase)
		cmd = r.detectAndRecover(est, phase, reading, cmd)

		r.mav.Step(cmd, r.tick)
		watts := r.power.Power(r.mav.State().Vel)
		r.battery.Drain(watts, r.tick)
		r.acct.EnergyJ += watts * r.tick

		if r.trc != nil {
			// Every event tag this tick could attach to the previous
			// sample has fired by now, so everything before the new
			// sample is final and can stream to the sink.
			r.flushSink(len(r.trc.Samples))
			s := r.mav.State()
			r.trc.Add(trace.Sample{T: s.T, Pos: s.Pos, Vel: s.Vel, Yaw: s.Yaw})
			if !injectedSeen && r.faultFired() {
				injectedSeen = true
				r.trc.MarkEvent("inject")
			}
		}

		if done, outcome := r.terminal(); done {
			return r.finish(outcome)
		}
	}
}

// flushSink streams trace samples [sinkFlushed, upto) to the configured
// sink. Serialization reads straight out of the reserved trace buffer, so a
// recorded mission's tick loop stays allocation-free (the sink's own
// contract keeps its side of the call cheap; see trace.Sink).
func (r *runner) flushSink(upto int) {
	if r.cfg.Sink == nil {
		return
	}
	for ; r.sinkFlushed < upto; r.sinkFlushed++ {
		r.cfg.Sink.Append(r.trc.Samples[r.sinkFlushed])
	}
}

// senseAndMap captures a depth frame and integrates it on the map cadence.
func (r *runner) senseAndMap(st sim.State) {
	if r.t < r.nextMapT {
		return
	}
	r.nextMapT = r.t + r.mapPeriod
	r.camera.CaptureInto(r.frame, r.world, st.Pos, st.Yaw, r.rngs.sensor)
	if r.senInj != nil {
		// Sensor fault, depth channel: mutate the captured frame before it
		// enters the perception chain. The injector draws from its own plan
		// seed, so the mission RNG streams are unperturbed.
		r.senInj.CorruptDepths(r.frame.Depth, r.frame.MaxRange)
	}
	r.depthT.Publish(r.frame) // → point cloud → OctoMap, synchronously
}

// perceive runs the collision-check kernel each tick once airborne.
func (r *runner) perceive(st sim.State, phase planning.MissionPhase) {
	if phase == planning.PhaseTakeoff {
		return
	}
	// The check scans the way-points from the tracker's nearest one on,
	// reusing its previous answers while the map and those way-points are
	// unchanged (perception.Checker.CheckFrom).
	var traj []geom.Vec3
	from := 0
	if r.curTraj != nil {
		r.posBuf = r.curTraj.AppendPositions(r.posBuf[:0])
		traj, from = r.posBuf, r.tracker.NearestIndex()
	}
	rep := r.checker.CheckFrom(r.tree, st.Pos, st.Vel, traj, from, r.hook(faultinject.KernelColCheck))
	if r.checkAudit != nil {
		r.checkAudit(st.Pos, st.Vel, traj, from, rep)
	}
	rep.T = r.t
	r.acct.ComputeS += r.cfg.Platform.ColCheckS
	r.reportT.Publish(rep) // interceptor may corrupt; planner node stores it
}

// planning decision constants.
const (
	brakeTTCs       = 1.5 // emergency-stop threshold on time-to-collision
	replanMinGapS   = 1.0 // minimum spacing between replans
	collisionWindow = 25  // way-points ahead that trigger a replan when blocked
	stuckTimeoutS   = 8.0 // no trajectory progress for this long → replan
)

// maybePlan invokes the motion planner when the mission needs a (new)
// trajectory. Planning stalls the vehicle: the busyUntil window makes the
// command loop hover while the planner computes, charging the platform's
// planning latency to mission time.
func (r *runner) maybePlan(st sim.State, phase planning.MissionPhase) {
	if phase != planning.PhaseNavigate || r.t < r.busyUntil {
		return
	}
	need := r.forceReplan
	if r.curTraj == nil {
		need = true
	}
	rep := r.lastReport
	if rep.TimeToCollision < brakeTTCs {
		need = true
	}
	if seq := rep.FutureCollisionSeq; seq >= 0 && seq < collisionWindow {
		need = true
	}
	if r.curTraj != nil {
		if _, _, ok := r.tracker.SelectTarget(st.Pos); ok && r.tracker.Progress() > 0.99 && !r.mav.AtGoal() {
			need = true
		}
		// Progress watchdog: tracking that stalls (oscillation around a
		// corrupted way-point, unreachable target) forces a fresh plan.
		if n := r.tracker.NearestIndex(); n > r.lastNearest {
			r.lastNearest = n
			r.lastProgressT = r.t
		} else if r.t-r.lastProgressT > stuckTimeoutS {
			need = true
			r.lastProgressT = r.t
		}
	}
	if !need || (r.t-r.lastPlanT) < replanMinGapS {
		return
	}
	// Defer execution one tick: the anomaly-detection node sees the
	// triggering states this tick and its recovery can cancel a replan
	// requested by a corrupted report.
	r.planPending = true
}

// runPlanner executes one motion-planning + smoothening invocation.
// asRecovery charges the compute time to the planning-recovery account.
func (r *runner) runPlanner(st sim.State, asRecovery bool) {
	r.lastPlanT = r.t
	r.forceReplan = false
	r.res.Plans++

	cost := r.cfg.Platform.PlanS
	r.acct.ComputeS += cost
	if asRecovery {
		r.acct.RecoverPlanningS += cost
	}
	r.busyUntil = r.t + cost

	start := st.Pos
	if start.Z < r.adapter.zMin {
		start.Z = r.adapter.zMin + 0.1
	}
	path, err := r.motion.Plan(start, r.mission.NavGoal(), r.adapter, r.rngs.planner)
	if err != nil {
		r.res.PlanFails++
		r.curTraj = nil
		r.tracker.SetTrajectory(nil)
		return
	}
	tr := r.smooth.Smooth(path, r.adapter, r.rngs.planner)

	// Instruction-level injection site for the planner kernel: the
	// produced way-point fields pass through the corruption hook.
	if hook := r.hook(faultinject.KernelPlanner); hook != nil {
		for i := range tr.Points {
			p := &tr.Points[i]
			p.Pos.X = hook(p.Pos.X)
			p.Pos.Y = hook(p.Pos.Y)
			p.Pos.Z = hook(p.Pos.Z)
			p.Yaw = hook(p.Yaw)
			p.Vel.X = hook(p.Vel.X)
			p.Vel.Y = hook(p.Vel.Y)
			p.Vel.Z = hook(p.Vel.Z)
		}
	}
	r.trajT.Publish(tr)
	if r.trc != nil {
		r.trc.MarkEvent("replan")
	}
}

// command computes this tick's flight command.
func (r *runner) command(st sim.State, phase planning.MissionPhase) sim.VelocityCmd {
	switch phase {
	case planning.PhaseTakeoff:
		return sim.VelocityCmd{Vel: geom.V(0, 0, 1.2), Yaw: st.Yaw}
	case planning.PhaseDeliver, planning.PhaseDone:
		return sim.VelocityCmd{Vel: geom.Vec3{}, Yaw: st.Yaw}
	}
	if r.t < r.busyUntil || r.curTraj == nil {
		// Hover/brake while planning or without a trajectory.
		return sim.VelocityCmd{Vel: geom.Vec3{}, Yaw: st.Yaw}
	}
	if r.lastReport.TimeToCollision < brakeTTCs {
		// Emergency brake: stop before the obstacle; replan is queued.
		return sim.VelocityCmd{Vel: geom.Vec3{}, Yaw: st.Yaw}
	}

	target, idx, ok := r.tracker.SelectTarget(st.Pos)
	if !ok {
		return sim.VelocityCmd{Vel: geom.Vec3{}, Yaw: st.Yaw}
	}
	// Instruction-level injection site for the PID/command-issue kernel:
	// the kernel's working setpoint — the pursued way-point pose and
	// feed-forward velocity — passes through the corruption hook. The
	// corrupted setpoint persists in the kernel's state (via the
	// write-back below) until trajectory progress refreshes it, which is
	// how a one-shot SDC in the control kernel keeps affecting commands.
	if hook := r.hook(faultinject.KernelPID); hook != nil {
		target.Pos.X = hook(target.Pos.X)
		target.Pos.Y = hook(target.Pos.Y)
		target.Pos.Z = hook(target.Pos.Z)
		target.Vel.X = hook(target.Vel.X)
		target.Vel.Y = hook(target.Vel.Y)
		target.Vel.Z = hook(target.Vel.Z)
	}
	// Publish the pursued way-point on the Multidoftraj stream; MAVFI
	// interceptors may corrupt it in transit, and the subscriber writes it
	// (corrupted or not) back into the tracker state.
	r.wpT.Publish(waypointMsg{WP: target, Index: idx})
	if r.hasTarget {
		target = r.curTarget
	}

	vel, yaw, done := r.tracker.TrackTo(target, st.Pos, r.tick, nil)
	r.acct.ComputeS += r.cfg.Platform.ControlS
	if done && !r.mav.AtGoal() {
		r.forceReplan = true
	}
	return sim.VelocityCmd{Vel: vel, Yaw: yaw}
}

// detectAndRecover runs the anomaly-detection node: build the monitored
// state vector, preprocess, observe, and apply any recovery — possibly
// recomputing the command that will be actuated this tick.
func (r *runner) detectAndRecover(st sim.State, phase planning.MissionPhase, reading sim.IMUReading, cmd sim.VelocityCmd) sim.VelocityCmd {
	var vec detect.StateVector
	vec[faultinject.StateTimeToCollision] = r.lastReport.TimeToCollision
	vec[faultinject.StateFutureColSeq] = r.lastReport.FutureCollisionSeq
	vec[faultinject.StateWpX] = r.curTarget.Pos.X
	vec[faultinject.StateWpY] = r.curTarget.Pos.Y
	vec[faultinject.StateWpZ] = r.curTarget.Pos.Z
	vec[faultinject.StateWpYaw] = r.curTarget.Yaw
	vec[faultinject.StateVelX] = cmd.Vel.X
	vec[faultinject.StateVelY] = cmd.Vel.Y
	vec[faultinject.StateVelZ] = cmd.Vel.Z
	vec[faultinject.StatePosX] = reading.Pos.X
	vec[faultinject.StatePosY] = reading.Pos.Y
	vec[faultinject.StatePosZ] = reading.Pos.Z
	vec[faultinject.StateAccMag] = reading.Accel.Len()

	deltas, ready := r.prep.Process(vec)
	active := ready && phase == planning.PhaseNavigate && r.curTraj != nil && r.t >= r.busyUntil
	if r.suppress > 0 {
		r.suppress--
		active = false
	}
	if !active {
		r.rememberGood()
		return cmd
	}

	if r.cfg.RecordStates {
		r.deltas = append(r.deltas, deltas)
	}
	if r.cfg.Detector == nil {
		r.rememberGood()
		return cmd
	}

	if _, isGAD := r.cfg.Detector.(*detect.GAD); isGAD {
		r.acct.DetectS += r.cfg.Platform.GADObserveS
	} else {
		r.acct.DetectS += r.cfg.Platform.AADObserveS
	}
	recs := r.cfg.Detector.Observe(r.t, deltas)
	if len(recs) == 0 {
		r.rememberGood()
		return cmd
	}

	r.acct.Alarms += len(recs)
	if r.acct.FirstAlarmS == 0 {
		r.acct.FirstAlarmS = r.t
	}
	if r.trc != nil {
		r.trc.MarkEvent("alarm")
	}
	if r.cfg.DetectOnly {
		// Detection-only mode: alarms are counted and timestamped but no
		// recovery runs (and no suppression window follows — suppression
		// belongs to recovery-induced discontinuities).
		return cmd
	}
	for _, rec := range recs {
		cmd = r.recover(rec, st, cmd)
	}
	r.suppress = 2
	return cmd
}

// rememberGood snapshots the last known-clean inter-kernel states, the
// source of recovery values.
func (r *runner) rememberGood() {
	r.goodReport = r.lastReport
	if r.hasTarget {
		r.goodTarget = r.curTarget
		r.goodGen = r.trajGen
		r.hasGood = true
	}
}

// recover applies one stage recomputation (the paper's recovery feedback
// loop) and returns the possibly recomputed command.
func (r *runner) recover(rec detect.Recovery, st sim.State, cmd sim.VelocityCmd) sim.VelocityCmd {
	r.acct.Recomputes++
	p := r.cfg.Platform
	switch rec.Stage {
	case faultinject.StagePerception:
		// Recompute the perception stage: re-integrate the map and redo
		// the collision check from cached inputs; the corrupted report is
		// discarded in favour of the last good one until the recompute
		// lands next tick.
		r.acct.RecoverPerceptionS += p.OctoMapS
		r.acct.ComputeS += p.OctoMapS
		r.busyUntil = math.Max(r.busyUntil, r.t+p.OctoMapS)
		r.lastReport = r.goodReport
		// Cancel a replan the corrupted report may have requested.
		r.planPending = false

	case faultinject.StagePlanning:
		// Recompute the planning stage: discard the (corrupted)
		// trajectory and replan.
		r.curTraj = nil
		r.tracker.SetTrajectory(nil)
		r.runPlanner(st, true)
		cmd = sim.VelocityCmd{Vel: geom.Vec3{}, Yaw: st.Yaw}

	case faultinject.StageControl:
		// Recompute the control stage (the paper's AAD recovery point,
		// 0.46 ms): restore the last good monitored states — the
		// detection node re-publishes the clean report and way-point,
		// ceasing propagation of whichever state was corrupted — and
		// re-issue the command. The one-shot fault has already fired, so
		// the recomputation is clean.
		r.acct.RecoverControlS += p.ControlS
		r.acct.ComputeS += p.ControlS
		r.lastReport = r.goodReport
		r.planPending = false
		if r.hasGood && r.curTraj != nil && r.goodGen == r.trajGen {
			// Restore only when the last-good way-point belongs to the
			// currently tracked trajectory; after a replan the fresh
			// trajectory is already clean and a stale restore would
			// corrupt it.
			r.tracker.SetWaypoint(r.curTargetI, r.goodTarget)
			r.curTarget = r.goodTarget
			vel, yaw, _ := r.tracker.TrackTo(r.goodTarget, st.Pos, r.tick, nil)
			cmd = sim.VelocityCmd{Vel: vel, Yaw: yaw}
		} else {
			cmd = sim.VelocityCmd{Vel: geom.Vec3{}, Yaw: st.Yaw}
		}
	}
	return cmd
}

// terminal checks mission-ending conditions.
func (r *runner) terminal() (bool, qof.Outcome) {
	switch {
	case r.mav.Crashed():
		return true, qof.Crash
	case r.mission.Phase() == planning.PhaseDone:
		return true, qof.Success
	case r.battery.CapacityJ > 0 && r.battery.Remaining() <= 0:
		return true, qof.BatteryOut
	case r.t >= r.cfg.MaxMissionS:
		return true, qof.Timeout
	}
	return false, qof.Success
}

// faultFired reports whether any configured fault — compute or physical —
// has fired so far.
func (r *runner) faultFired() bool {
	return r.kInj.Injected() ||
		(r.sInj != nil && r.sInj.Injected()) ||
		(r.senInj != nil && r.senInj.Fired()) ||
		(r.actInj != nil && r.actInj.Fired()) ||
		(r.windInj != nil && r.windInj.Fired())
}

// finish assembles the Result.
func (r *runner) finish(outcome qof.Outcome) Result {
	r.res.Metrics = r.acct
	r.res.Outcome = outcome
	r.res.FlightTimeS = r.t
	r.res.DistanceM = r.mav.DistanceFlown()
	r.res.Injected = r.faultFired()
	if r.kInj.Injected() {
		r.res.InjectedAt = r.kInj.InjectedAt
	} else if r.sInj != nil && r.sInj.Injected() {
		r.res.InjectedAt = r.sInj.InjectedAt
	} else if r.senInj != nil && r.senInj.Fired() {
		r.res.InjectedAt = r.senInj.FiredAt()
	} else if r.actInj != nil && r.actInj.Fired() {
		r.res.InjectedAt = r.actInj.FiredAt()
	} else if r.windInj != nil && r.windInj.Fired() {
		r.res.InjectedAt = r.windInj.FiredAt()
	}
	r.res.Metrics.InjectedAtS = r.res.InjectedAt
	if r.trc != nil {
		if outcome == qof.Crash {
			r.trc.MarkEvent("crash")
		}
		// The mission is over: no further MarkEvent can fire, so the tail
		// of the trace (including the just-tagged final sample) is final.
		r.flushSink(len(r.trc.Samples))
		r.res.Trace = r.trc
	}
	r.res.StateDeltas = r.deltas
	// Recycle the tree for the next mission. Safe: nothing after finish
	// touches it, and Reset or ForkInto fully reinitialises it before reuse.
	// A panicked mission never reaches finish and never returns its tree —
	// the list refills with fresh trees.
	idleTrees.put(r.tree)
	r.tree, r.adapter.tree = nil, nil
	return r.res
}
