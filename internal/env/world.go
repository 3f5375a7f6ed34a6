// Package env provides the simulated 3-D environments the MAV flies through:
// the two Unreal-Engine-style preset scenes used in the paper (Factory,
// Farm), the parameterised random environment generator of RoboRun [15] used
// to create the Sparse and Dense scenes, and the randomised training
// environments used to fit the anomaly detectors.
//
// A World is a set of axis-aligned cuboid obstacles inside a bounded flight
// volume, plus a mission start and goal. The PPC pipeline never reads the
// obstacle list directly — it senses the world only through the depth
// camera's ray casts, exactly as the real pipeline sees Unreal geometry only
// through rendered depth images.
package env

import (
	"fmt"
	"math"
	"sync"

	"mavfi/internal/geom"
)

// World is one navigation scenario.
type World struct {
	// Name identifies the scenario in experiment output.
	Name string
	// Bounds is the legal flight volume; leaving it counts as a failure.
	Bounds geom.AABB
	// Obstacles are solid cuboids. The ground plane z=0 is always solid.
	// The obstacle set must not change after the first query (Occupied,
	// Collides, Raycast, …): queries lazily build a spatial index over it,
	// shared by every concurrent mission flying this world.
	Obstacles []geom.AABB
	// Start is the take-off position, Goal the mission destination.
	Start, Goal geom.Vec3
	// GoalTolerance is the arrival radius around Goal.
	GoalTolerance float64

	accelOnce sync.Once
	accel     *obstacleIndex
}

// index returns the obstacle spatial index, building it on first use; nil
// for small obstacle sets, where the linear scan wins.
func (w *World) index() *obstacleIndex {
	w.accelOnce.Do(func() {
		if len(w.Obstacles) >= accelMinObstacles {
			w.accel = buildIndex(w.Obstacles)
		}
	})
	return w.accel
}

// anyObstacleWithin reports whether any obstacle surface lies within radius
// of p, through the index when one exists.
func (w *World) anyObstacleWithin(p geom.Vec3, radius float64) bool {
	if idx := w.index(); idx != nil {
		return idx.anyWithin(w.Obstacles, p, radius)
	}
	for i := range w.Obstacles {
		if w.Obstacles[i].Dist(p) <= radius {
			return true
		}
	}
	return false
}

// Occupied reports whether a sphere of the given radius centred at p
// intersects any obstacle, the ground, or the volume boundary.
func (w *World) Occupied(p geom.Vec3, radius float64) bool {
	if p.Z-radius < 0 {
		return true
	}
	if !w.Bounds.Expand(-radius).Contains(p) {
		return true
	}
	return w.anyObstacleWithin(p, radius)
}

// Collides reports whether the vehicle body physically collides at p: an
// obstacle within the body radius, flying underground, or leaving the flight
// volume. Unlike Occupied — the conservative query planners use — ground
// proximity above z=0 is legal, so take-off and landing are possible.
func (w *World) Collides(p geom.Vec3, radius float64) bool {
	if p.Z < -0.01 {
		return true
	}
	if !w.Bounds.Contains(p) {
		return true
	}
	return w.anyObstacleWithin(p, radius)
}

// SegmentFree reports whether the straight segment a→b, swept by a sphere of
// the given radius, stays collision-free. It conservatively samples the
// segment at radius/2 spacing, which cannot tunnel through obstacles larger
// than the probe radius.
func (w *World) SegmentFree(a, b geom.Vec3, radius float64) bool {
	dist := a.Dist(b)
	step := radius / 2
	if step <= 0 {
		step = 0.05
	}
	n := int(math.Ceil(dist/step)) + 1
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		if w.Occupied(a.Lerp(b, t), radius) {
			return false
		}
	}
	return true
}

// Raycast returns the distance along unit-direction dir from origin to the
// first obstacle or the ground, capped at maxRange. A clear ray returns
// maxRange. Large obstacle sets are traversed through the spatial index;
// the returned distance is bit-identical either way.
func (w *World) Raycast(origin, dir geom.Vec3, maxRange float64) float64 {
	best := maxRange
	// Ground plane z = 0.
	if dir.Z < -1e-12 {
		t := -origin.Z / dir.Z
		if t >= 0 && t < best {
			best = t
		}
	}
	if idx := w.index(); idx != nil {
		return idx.raycast(w.Obstacles, origin, dir, best)
	}
	ray := geom.NewRay(origin, dir) // prepared once for every obstacle test
	for _, ob := range w.Obstacles {
		if hit, t := ob.Hit(ray); hit && t >= 0 && t < best {
			best = t
		}
	}
	return best
}

// ObstacleDensity returns the fraction of the ground-plane footprint covered
// by obstacles, the "obstacle density" knob of the environment generator.
func (w *World) ObstacleDensity() float64 {
	size := w.Bounds.Size()
	ground := size.X * size.Y
	if ground <= 0 {
		return 0
	}
	covered := 0.0
	for _, ob := range w.Obstacles {
		s := ob.Size()
		covered += s.X * s.Y
	}
	return covered / ground
}

// Validate checks basic well-formedness: start/goal inside bounds and not
// inside obstacles (with a 0.5 m clearance).
func (w *World) Validate() error {
	if w.Bounds.IsEmpty() {
		return fmt.Errorf("env %s: empty bounds", w.Name)
	}
	const clearance = 0.5
	// The start sits on the ground; check body collision there and
	// conservative occupancy just above it (where the take-off climbs).
	if w.Collides(w.Start, clearance) || w.Occupied(w.Start.Add(geom.V(0, 0, 1+clearance)), clearance) {
		return fmt.Errorf("env %s: start %v is occupied", w.Name, w.Start)
	}
	if w.Occupied(w.Goal, clearance) {
		return fmt.Errorf("env %s: goal %v is occupied", w.Name, w.Goal)
	}
	if w.GoalTolerance <= 0 {
		return fmt.Errorf("env %s: non-positive goal tolerance", w.Name)
	}
	return nil
}
