// Package perception implements the Collision Check kernel of the PPC
// pipeline. It produces the two inter-kernel states the paper monitors from
// the perception stage (Fig. 4): time_to_collision — seconds until the
// vehicle, continuing at its current velocity, would hit an occupied or
// map-boundary voxel — and future_collision_seq — the index of the first
// way-point on the active trajectory that is in collision with the current
// map (or -1 when the whole horizon is clear).
package perception

import (
	"math"

	"mavfi/internal/geom"
	"mavfi/internal/octomap"
)

// Report is the collision-check kernel output published to the planning
// stage.
type Report struct {
	T float64
	// TimeToCollision is in seconds; Horizon when no collision is sensed.
	TimeToCollision float64
	// FutureCollisionSeq is the trajectory way-point index of the first
	// predicted collision, or -1 when the horizon is clear.
	FutureCollisionSeq float64
}

// Checker is the collision-check kernel. It keeps its last way-point scan
// (see CheckFrom), so a Checker is not safe for concurrent use: each mission
// owns one.
type Checker struct {
	// Horizon caps the look-ahead, in seconds.
	Horizon float64
	// Policy configures occupancy queries (radius, unknown-space handling).
	Policy octomap.QueryPolicy

	scan wpScan
}

// wpScan is the last way-point scan: the map and generation it probed, and
// the way-points its answer covers, traj[from:from+len(pts)], copied, with
// pts[hit-from] the first blocked one (hit = -1 when none was).
type wpScan struct {
	tree *octomap.Tree
	gen  uint64
	from int
	hit  int
	pts  []geom.Vec3
}

// NewChecker returns the kernel with the experiment configuration: a 10 s
// horizon and optimistic unknown-space handling with the airframe radius.
func NewChecker(radius float64) *Checker {
	return &Checker{
		Horizon: 10,
		Policy:  octomap.QueryPolicy{UnknownIsFree: true, Radius: radius},
	}
}

// Check computes the collision report for the vehicle at pos moving with
// velocity vel, following trajectory points traj (may be nil before the
// first plan). The map is the current OctoMap.
//
// corrupt, when non-nil, is the fault-injection hook applied to the kernel's
// intermediate distance computation — the instruction-level injection site
// for this kernel.
func (c *Checker) Check(m *octomap.Tree, pos, vel geom.Vec3, traj []geom.Vec3, corrupt func(float64) float64) Report {
	return c.CheckFrom(m, pos, vel, traj, 0, corrupt)
}

// CheckFrom is Check over the way-points traj[from:] (none when from is
// past the end): FutureCollisionSeq counts from traj[from]. The mission
// passes its whole trajectory and the tracker's nearest index, so that
// consecutive checks name the same way-point by the same index.
//
// The way-point scan reuses the previous call's answer for every way-point
// it provably still holds for: while the map is the same tree at the same
// Generation (no scan has been inserted since), a way-point at an index the
// previous scan covered, at or after its start, whose position is
// bit-identical to the one it probed there, is free or blocked as it was,
// since PointFree depends on nothing else. Every other way-point is probed.
// So the report is the one a fresh scan gives, and the fault hook sees the
// same values in the same order; between map updates (every fifth tick at
// the default cadence) a scan costs a comparison per way-point instead of
// seven voxel lookups.
func (c *Checker) CheckFrom(m *octomap.Tree, pos, vel geom.Vec3, traj []geom.Vec3, from int, corrupt func(float64) float64) Report {
	r := Report{TimeToCollision: c.Horizon, FutureCollisionSeq: -1}

	speed := vel.Len()
	if speed > 0.05 {
		lookAhead := speed * c.Horizon
		end := pos.Add(vel.Normalize().Scale(lookAhead))
		// The obstacle distance is this kernel's central intermediate
		// value and passes through the injection site on every
		// invocation — a corrupted-low distance manifests as a false
		// collision alarm (emergency brake + replan), a corrupted-high
		// one masks a real obstacle, both failure modes the paper
		// attributes to this kernel.
		dist := lookAhead
		if frac, hit := m.FirstBlocked(pos, end, c.Policy); hit {
			dist = frac * lookAhead
		}
		if corrupt != nil {
			dist = corrupt(dist)
		}
		ttc := dist / speed
		if math.IsNaN(ttc) || ttc < 0 {
			ttc = 0
		}
		if ttc > c.Horizon {
			ttc = c.Horizon
		}
		r.TimeToCollision = ttc
	}

	if hit := c.scanWaypoints(m, traj, from); hit >= 0 {
		r.FutureCollisionSeq = float64(hit - from)
	}
	if corrupt != nil {
		r.FutureCollisionSeq = corrupt(r.FutureCollisionSeq)
	}
	return r
}

// scanWaypoints returns the index of the first way-point of traj[from:]
// that is not PointFree, or -1, reusing the previous scan where CheckFrom
// says it may, and keeps this scan for the next call.
func (c *Checker) scanWaypoints(m *octomap.Tree, traj []geom.Vec3, from int) int {
	prev := &c.scan
	gen := m.Generation()
	known := 0 // way-points from..from+known-1 may reuse prev's answers
	if prev.tree == m && prev.gen == gen && from >= prev.from {
		known = max(prev.from+len(prev.pts)-from, 0)
	}
	hit := -1
	for i := from; i < len(traj); i++ {
		var free bool
		if i-from < known && sameBits(traj[i], prev.pts[i-prev.from]) {
			free = i != prev.hit
		} else {
			free = m.PointFree(traj[i], c.Policy)
		}
		if !free {
			hit = i
			break
		}
	}
	end := len(traj)
	if hit >= 0 {
		end = hit + 1
	}
	prev.tree, prev.gen, prev.from, prev.hit = m, gen, from, hit
	prev.pts = append(prev.pts[:0], traj[min(from, end):end]...)
	return hit
}

// sameBits reports whether a and b are the same position bit for bit.
func sameBits(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}
