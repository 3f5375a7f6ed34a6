package geom

import "math"

// AABB is an axis-aligned bounding box described by its minimum and maximum
// corners. A box with any Max component less than the corresponding Min
// component is empty.
type AABB struct {
	Min, Max Vec3
}

// Box constructs an AABB from two opposite corners given in any order.
func Box(a, b Vec3) AABB {
	return AABB{Min: a.Min(b), Max: a.Max(b)}
}

// BoxAt constructs an AABB centred at c with the given full side lengths.
func BoxAt(c Vec3, sides Vec3) AABB {
	h := sides.Scale(0.5)
	return AABB{Min: c.Sub(h), Max: c.Add(h)}
}

// Center returns the centre of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the per-axis extents of the box.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// IsEmpty reports whether the box encloses no volume.
func (b AABB) IsEmpty() bool {
	return b.Max.X < b.Min.X || b.Max.Y < b.Min.Y || b.Max.Z < b.Min.Z
}

// Contains reports whether point p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Intersects reports whether b and o overlap (touching counts).
func (b AABB) Intersects(o AABB) bool {
	return b.Min.X <= o.Max.X && b.Max.X >= o.Min.X &&
		b.Min.Y <= o.Max.Y && b.Max.Y >= o.Min.Y &&
		b.Min.Z <= o.Max.Z && b.Max.Z >= o.Min.Z
}

// Expand returns b grown by margin m on every face. A negative margin
// shrinks the box.
func (b AABB) Expand(m float64) AABB {
	d := Vec3{m, m, m}
	return AABB{Min: b.Min.Sub(d), Max: b.Max.Add(d)}
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// ClosestPoint returns the point inside b closest to p.
func (b AABB) ClosestPoint(p Vec3) Vec3 {
	return p.Clamp(b.Min, b.Max)
}

// Dist returns the distance from p to the box surface (0 if p is inside).
func (b AABB) Dist(p Vec3) float64 {
	return b.ClosestPoint(p).Dist(p)
}

// SegmentIntersects reports whether the segment from p0 to p1 passes through
// the box, using the slab method.
func (b AABB) SegmentIntersects(p0, p1 Vec3) bool {
	hit, _, _ := b.SegmentIntersection(p0, p1)
	return hit
}

// SegmentIntersection computes the parametric entry/exit of segment p0→p1
// through b. It returns hit=false when the segment misses the box; otherwise
// tEnter and tExit are the clamped parameters in [0,1] where the segment is
// inside the box.
func (b AABB) SegmentIntersection(p0, p1 Vec3) (hit bool, tEnter, tExit float64) {
	return b.slab(p0, p1.Sub(p0))
}

// slab is the slab test of the segment p0→p0+d against b, the body of
// SegmentIntersection taking the segment's delta ready-made.
func (b AABB) slab(p0, d Vec3) (hit bool, tEnter, tExit float64) {
	tmin, tmax := 0.0, 1.0
	for axis := 0; axis < 3; axis++ {
		var o, dir, lo, hi float64
		switch axis {
		case 0:
			o, dir, lo, hi = p0.X, d.X, b.Min.X, b.Max.X
		case 1:
			o, dir, lo, hi = p0.Y, d.Y, b.Min.Y, b.Max.Y
		default:
			o, dir, lo, hi = p0.Z, d.Z, b.Min.Z, b.Max.Z
		}
		if math.Abs(dir) < 1e-15 {
			if o < lo || o > hi {
				return false, 0, 0
			}
			continue
		}
		t1 := (lo - o) / dir
		t2 := (hi - o) / dir
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t1 > tmin {
			tmin = t1
		}
		if t2 < tmax {
			tmax = t2
		}
		if tmin > tmax {
			return false, 0, 0
		}
	}
	return true, tmin, tmax
}

// rayRange is the length of the segment a ray is slab-tested as; it bounds
// sensing distances in this codebase by a wide margin.
const rayRange = 1e6

// Ray is the ray origin+t*dir (t >= 0) prepared for tests against many
// boxes: its direction is normalised and its rayRange-long test segment
// built once, where RayIntersection does both per box.
type Ray struct {
	origin Vec3
	d      Vec3 // the test segment's delta: end minus origin
}

// NewRay prepares the ray origin+t*dir for Hit.
func NewRay(origin, dir Vec3) Ray {
	return Ray{origin: origin, d: origin.Add(dir.Normalize().Scale(rayRange)).Sub(origin)}
}

// Hit is RayIntersection for a prepared ray: the same arithmetic, so the
// same result bit for bit. A miss is (false, 0): slab reports tEnter 0.
func (b AABB) Hit(r Ray) (hit bool, t float64) {
	ok, tEnter, _ := b.slab(r.origin, r.d)
	return ok, tEnter * rayRange
}

// RayIntersection computes the first intersection of the ray origin+t*dir
// (t >= 0) with the box. It returns hit=false when the ray misses. Testing
// one ray against many boxes, prepare it once with NewRay and call Hit.
func (b AABB) RayIntersection(origin, dir Vec3) (hit bool, t float64) {
	return b.Hit(NewRay(origin, dir))
}
