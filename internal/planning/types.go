// Package planning implements the planning stage of the PPC pipeline: the
// sampling-based motion planners the paper evaluates (RRT, RRT*,
// RRT-Connect), the path-smoothening kernel, trajectory time
// parameterisation (the "Multidoftraj" inter-kernel state), and the
// package-delivery mission planner.
package planning

import (
	"errors"
	"math/rand"

	"mavfi/internal/geom"
)

// Waypoint is one multi-DOF trajectory sample: position, feed-forward
// velocity, heading, and time offset from trajectory start. Its fields are
// the planning-stage inter-kernel states the paper corrupts in Fig. 4
// (x, y, z, yaw) and monitors in the detectors.
type Waypoint struct {
	Pos geom.Vec3
	Vel geom.Vec3
	Yaw float64
	T   float64
}

// Trajectory is the time-parameterised multi-DOF trajectory the planning
// stage publishes to control.
type Trajectory struct {
	Points []Waypoint
}

// Duration returns the trajectory's total time span.
func (tr *Trajectory) Duration() float64 {
	if len(tr.Points) == 0 {
		return 0
	}
	return tr.Points[len(tr.Points)-1].T
}

// Length returns the trajectory's path length in metres.
func (tr *Trajectory) Length() float64 {
	total := 0.0
	for i := 1; i < len(tr.Points); i++ {
		total += tr.Points[i].Pos.Dist(tr.Points[i-1].Pos)
	}
	return total
}

// Positions returns just the way-point positions, the form the collision
// checker consumes.
func (tr *Trajectory) Positions() []geom.Vec3 {
	return tr.AppendPositions(nil)
}

// AppendPositions appends the way-point positions to dst and returns the
// extended slice, letting per-tick callers reuse one scratch buffer instead
// of allocating a fresh slice every invocation.
func (tr *Trajectory) AppendPositions(dst []geom.Vec3) []geom.Vec3 {
	for _, w := range tr.Points {
		dst = append(dst, w.Pos)
	}
	return dst
}

// CollisionChecker abstracts the occupancy queries planners make against the
// perception stage's map.
type CollisionChecker interface {
	// PointFree reports whether the vehicle fits at p.
	PointFree(p geom.Vec3) bool
	// SegmentFree reports whether the straight motion a→b is collision-free.
	SegmentFree(a, b geom.Vec3) bool
}

// Planner is a single-query motion planner producing a piecewise-linear path
// from start to goal.
type Planner interface {
	Name() string
	Plan(start, goal geom.Vec3, cc CollisionChecker, rng *rand.Rand) ([]geom.Vec3, error)
}

// ErrNoPath is returned when a planner exhausts its iteration budget without
// connecting start to goal.
var ErrNoPath = errors.New("planning: no path found")

// IndexPolicy selects how the RRT-family planners answer their nearest-node
// and neighbourhood tree queries. Both policies return bit-identical
// results — the bucketed index reproduces the linear scans' first-min,
// lowest-index tie-breaking exactly (pinned by the equivalence and
// determinism tests) — so the policy is a pure performance knob.
type IndexPolicy int

const (
	// IndexAuto (the zero value, and the default) uses the bucketed grid
	// index.
	IndexAuto IndexPolicy = iota
	// IndexGrid forces the epoch-stamped bucketed grid index.
	IndexGrid
	// IndexLinear forces the reference linear scans over the node arena.
	IndexLinear
)

// Config holds the sampling parameters shared by the RRT-family planners.
type Config struct {
	// Bounds is the sampling volume.
	Bounds geom.AABB
	// StepSize is the maximum edge extension length in metres.
	StepSize float64
	// MaxIters bounds the number of sampling iterations.
	MaxIters int
	// GoalBias is the probability of sampling the goal directly.
	GoalBias float64
	// GoalTol is the radius within which a node can connect to the goal.
	GoalTol float64
	// RewireRadius is the RRT* neighbourhood radius.
	RewireRadius float64
	// Index selects the spatial-index policy for tree queries
	// (bit-identical either way; see IndexPolicy).
	Index IndexPolicy
}

// DefaultConfig returns the experiment planner configuration for a flight
// volume.
func DefaultConfig(bounds geom.AABB) Config {
	return Config{
		Bounds:       bounds,
		StepSize:     3.0,
		MaxIters:     4000,
		GoalBias:     0.1,
		GoalTol:      2.0,
		RewireRadius: 6.0,
	}
}

// sample draws a point uniformly from the config bounds, goal-biased.
func (c Config) sample(goal geom.Vec3, rng *rand.Rand) geom.Vec3 {
	if rng.Float64() < c.GoalBias {
		return goal
	}
	size := c.Bounds.Size()
	return c.Bounds.Min.Add(geom.V(
		rng.Float64()*size.X,
		rng.Float64()*size.Y,
		rng.Float64()*size.Z,
	))
}

// steer moves from 'from' toward 'to' by at most StepSize.
func (c Config) steer(from, to geom.Vec3) geom.Vec3 {
	d := to.Sub(from)
	if d.Len() <= c.StepSize {
		return to
	}
	return from.Add(d.Normalize().Scale(c.StepSize))
}

// treeNode is one vertex of an RRT search tree.
type treeNode struct {
	pos    geom.Vec3
	parent int // index into the tree slice; -1 for the root
	cost   float64
}

// nearest returns the index of the tree node closest to p by linear scan:
// the reference implementation of the first-min rule (strictly smaller
// squared distance wins; ties keep the lowest index) that the bucketed
// gridIndex must reproduce bit-identically.
func nearest(tree []treeNode, p geom.Vec3) int {
	best, bestD := 0, tree[0].pos.DistSq(p)
	for i := 1; i < len(tree); i++ {
		if d := tree[i].pos.DistSq(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// nearLinear appends to out the index of every tree node within squared
// distance r2 of p (inclusive), in ascending index order: the reference
// neighbourhood query the gridIndex must reproduce bit-identically.
func nearLinear(tree []treeNode, p geom.Vec3, r2 float64, out []int32) []int32 {
	for i := range tree {
		if tree[i].pos.DistSq(p) <= r2 {
			out = append(out, int32(i))
		}
	}
	return out
}

// extractPath walks parents from leaf to root and returns the path in
// start→goal order.
func extractPath(tree []treeNode, leaf int) []geom.Vec3 {
	var rev []geom.Vec3
	for i := leaf; i >= 0; i = tree[i].parent {
		rev = append(rev, tree[i].pos)
	}
	path := make([]geom.Vec3, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// PathLength returns the length of a piecewise-linear path.
func PathLength(path []geom.Vec3) float64 {
	total := 0.0
	for i := 1; i < len(path); i++ {
		total += path[i].Dist(path[i-1])
	}
	return total
}
