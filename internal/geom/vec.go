// Package geom provides the small set of 3-D geometry primitives used by the
// MAV simulator, the occupancy map, and the motion planners: vectors,
// axis-aligned boxes, rays, and segment queries.
//
// All types are plain values; the zero value is meaningful (origin, empty
// box). Angles are radians. The coordinate convention follows the simulator:
// x/y span the ground plane and z is altitude.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a 3-D vector or point.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Mul returns the component-wise product of v and o.
func (v Vec3) Mul(o Vec3) Vec3 { return Vec3{v.X * o.X, v.Y * o.Y, v.Z * o.Z} }

// Dot returns the dot product of v and o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Cross returns the cross product v × o.
func (v Vec3) Cross(o Vec3) Vec3 {
	return Vec3{
		v.Y*o.Z - v.Z*o.Y,
		v.Z*o.X - v.X*o.Z,
		v.X*o.Y - v.Y*o.X,
	}
}

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// LenSq returns the squared Euclidean norm of v.
func (v Vec3) LenSq() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and o.
func (v Vec3) Dist(o Vec3) float64 { return v.Sub(o).Len() }

// DistSq returns the squared Euclidean distance between v and o.
func (v Vec3) DistSq(o Vec3) float64 { return v.Sub(o).LenSq() }

// Normalize returns the unit vector in the direction of v, or the zero vector
// if v has (near-)zero length.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l < 1e-12 {
		return Vec3{}
	}
	return v.Scale(1 / l)
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Lerp linearly interpolates from v to o by t in [0,1].
func (v Vec3) Lerp(o Vec3, t float64) Vec3 {
	return Vec3{
		v.X + (o.X-v.X)*t,
		v.Y + (o.Y-v.Y)*t,
		v.Z + (o.Z-v.Z)*t,
	}
}

// Clamp returns v with each component clamped to [lo, hi] component-wise.
func (v Vec3) Clamp(lo, hi Vec3) Vec3 {
	return Vec3{
		clamp(v.X, lo.X, hi.X),
		clamp(v.Y, lo.Y, hi.Y),
		clamp(v.Z, lo.Z, hi.Z),
	}
}

// ClampLen returns v with its length clamped to at most max.
func (v Vec3) ClampLen(max float64) Vec3 {
	l := v.Len()
	if l <= max || l < 1e-12 {
		return v
	}
	return v.Scale(max / l)
}

// Yaw returns the heading angle of v projected onto the ground plane,
// measured from +x toward +y, in radians.
func (v Vec3) Yaw() float64 { return math.Atan2(v.Y, v.X) }

// IsFinite reports whether all components are finite (neither NaN nor ±Inf).
func (v Vec3) IsFinite() bool {
	return isFinite(v.X) && isFinite(v.Y) && isFinite(v.Z)
}

// Abs returns the component-wise absolute value of v.
func (v Vec3) Abs() Vec3 {
	return Vec3{math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)}
}

// Max returns the component-wise maximum of v and o.
func (v Vec3) Max(o Vec3) Vec3 {
	return Vec3{math.Max(v.X, o.X), math.Max(v.Y, o.Y), math.Max(v.Z, o.Z)}
}

// Min returns the component-wise minimum of v and o.
func (v Vec3) Min(o Vec3) Vec3 {
	return Vec3{math.Min(v.X, o.X), math.Min(v.Y, o.Y), math.Min(v.Z, o.Z)}
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Clampf clamps x to [lo, hi].
func Clampf(x, lo, hi float64) float64 { return clamp(x, lo, hi) }

// wrapLoopBound is the largest |angle| WrapAngle reduces by repeated 2π
// steps: at most 32 of them.
const wrapLoopBound = 64 * math.Pi

// WrapAngle wraps an angle in radians to (-π, π], in constant time for every
// float. Angles within wrapLoopBound take repeated 2π steps, the arithmetic
// every recorded flight was computed with. Beyond it the steps would take
// time in proportion to |a|, and forever once a−2π rounds back to a (a yaw
// an exponent bit flip made huge), so such an angle is first reduced with
// math.Remainder. ±Inf and NaN give NaN.
func WrapAngle(a float64) float64 {
	if !(math.Abs(a) <= wrapLoopBound) {
		a = math.Remainder(a, 2*math.Pi)
	}
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the signed smallest difference a-b wrapped to (-π, π].
func AngleDiff(a, b float64) float64 { return WrapAngle(a - b) }
