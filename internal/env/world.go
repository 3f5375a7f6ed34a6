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
// the returned distance is bit-identical either way. It is one ray of a
// Caster at origin; casting many rays from one origin, use the Caster.
func (w *World) Raycast(origin, dir geom.Vec3, maxRange float64) float64 {
	var buf [accelMinObstacles]float64 // room for every unindexed obstacle set
	c := w.caster(origin, buf[:0])
	return c.Raycast(dir, maxRange)
}

// cullOriginMax bounds the origin coordinates for which a Caster culls: the
// exactness margin below holds with a wide reserve up to here (see
// Caster.Raycast), and no world in this repository comes near it.
const cullOriginMax = 1e9

// Caster casts rays from one origin into a world: the depth camera's view
// of it for one frame. Reset computes every obstacle's distance from the
// origin once, and Raycast then slab-tests only the obstacles no farther
// than the nearest hit the ray has found so far, which returns exactly the
// distance testing every obstacle returns. Worlds with a spatial index take
// the indexed traversal instead, unculled. The zero Caster is ready for
// Reset, and a Caster reused across frames keeps its scratch.
type Caster struct {
	w      *World
	idx    *obstacleIndex
	origin geom.Vec3
	// dist holds, per obstacle of an unindexed world, its distance from
	// origin, or NaN where the cull must not use it.
	dist []float64
}

// Reset aims c at origin in world w.
func (c *Caster) Reset(w *World, origin geom.Vec3) { *c = w.caster(origin, c.dist) }

// caster returns the Caster of rays from origin into w, keeping its
// distances in dist's array when it is large enough (a value, not a
// pointer, so World.Raycast's stack array stays on the stack).
func (w *World) caster(origin geom.Vec3, dist []float64) Caster {
	c := Caster{w: w, idx: w.index(), origin: origin, dist: dist[:0]}
	if c.idx != nil {
		return c
	}
	// The comparisons are false for a NaN coordinate, so a NaN origin
	// stays out of the cull as a far-away one does.
	cull := math.Abs(origin.X) <= cullOriginMax && math.Abs(origin.Y) <= cullOriginMax &&
		math.Abs(origin.Z) <= cullOriginMax
	for i := range w.Obstacles {
		d := math.NaN()
		if ob := &w.Obstacles[i]; cull && !ob.IsEmpty() {
			d = ob.Dist(origin)
		}
		c.dist = append(c.dist, d)
	}
	return c
}

// Raycast returns the distance along unit-direction dir from the caster's
// origin to the first obstacle or the ground, capped at maxRange: exactly
// World.Raycast(origin, dir, maxRange).
//
// The cull is exact. AABB.Hit slab-tests a segment rayRange long from the
// origin, and a hit's entry parameter times rayRange is at least the
// Euclidean distance from the origin to the box, up to rounding far below
// the 1e-9 relative and absolute margin for origin coordinates within
// cullOriginMax. So an obstacle farther than best·(1+1e-9)+1e-9 can never
// return t < best, and skipping it changes nothing. The argument needs a
// finite direction and a well-formed box: a NaN or infinite direction
// slab-tests every box as a hit at t = 0, so such a ray culls nothing, and
// an inverted box, an origin that is not finite or beyond cullOriginMax,
// or a NaN box has a NaN distance, which never skips. An infinite distance
// from an origin within the bound belongs to a box beyond the test
// segment's reach, which no ray hits.
func (c *Caster) Raycast(dir geom.Vec3, maxRange float64) float64 {
	best := maxRange
	// Ground plane z = 0.
	if dir.Z < -1e-12 {
		t := -c.origin.Z / dir.Z
		if t >= 0 && t < best {
			best = t
		}
	}
	if c.idx != nil {
		return c.idx.raycast(c.w.Obstacles, c.origin, dir, best)
	}
	finite := dir.IsFinite()
	reach := cullReach(best, finite)
	var ray geom.Ray
	prepared := false
	for i, d := range c.dist {
		if d > reach {
			continue // beyond the nearest hit so far: cannot come before it
		}
		if !prepared {
			ray, prepared = geom.NewRay(c.origin, dir), true
		}
		if hit, t := c.w.Obstacles[i].Hit(ray); hit && t >= 0 && t < best {
			best = t
			reach = cullReach(best, finite)
		}
	}
	return best
}

// cullReach is the distance beyond which an obstacle cannot hit a ray
// before best (see Caster.Raycast); +Inf, which culls nothing, when the
// direction is not finite.
func cullReach(best float64, finiteDir bool) float64 {
	if !finiteDir {
		return math.Inf(1)
	}
	return best*(1+1e-9) + 1e-9
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
