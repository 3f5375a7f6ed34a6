package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func vecAlmostEq(a, b Vec3) bool {
	return almostEq(a.X, b.X) && almostEq(a.Y, b.Y) && almostEq(a.Z, b.Z)
}

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Mul(b); got != V(4, -10, 18) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Neg(); got != V(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
}

func TestCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V(clampMag(ax), clampMag(ay), clampMag(az))
		b := V(clampMag(bx), clampMag(by), clampMag(bz))
		c := a.Cross(b)
		return math.Abs(c.Dot(a)) < 1e-6*(1+a.LenSq()*b.LenSq()) &&
			math.Abs(c.Dot(b)) < 1e-6*(1+a.LenSq()*b.LenSq())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampMag keeps quick-generated values in a numerically reasonable range.
func clampMag(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 1e6)
}

func TestNormalize(t *testing.T) {
	if got := V(3, 4, 0).Normalize(); !vecAlmostEq(got, V(0.6, 0.8, 0)) {
		t.Errorf("Normalize = %v", got)
	}
	if got := (Vec3{}).Normalize(); got != (Vec3{}) {
		t.Errorf("Normalize(0) = %v, want zero", got)
	}
	f := func(x, y, z float64) bool {
		v := V(clampMag(x), clampMag(y), clampMag(z))
		n := v.Normalize()
		l := n.Len()
		return l == 0 || math.Abs(l-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := V(0, 0, 0), V(10, -10, 4)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); !vecAlmostEq(got, V(5, -5, 2)) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestClampLen(t *testing.T) {
	v := V(3, 4, 0) // length 5
	if got := v.ClampLen(10); got != v {
		t.Errorf("ClampLen above length changed vector: %v", got)
	}
	c := v.ClampLen(1)
	if !almostEq(c.Len(), 1) {
		t.Errorf("ClampLen(1).Len = %v", c.Len())
	}
	if !vecAlmostEq(c.Normalize(), v.Normalize()) {
		t.Error("ClampLen changed direction")
	}
	if got := (Vec3{}).ClampLen(1); got != (Vec3{}) {
		t.Errorf("ClampLen(zero) = %v", got)
	}
}

func TestClampComponentwise(t *testing.T) {
	v := V(-5, 0.5, 99)
	got := v.Clamp(V(0, 0, 0), V(1, 1, 1))
	if got != V(0, 0.5, 1) {
		t.Errorf("Clamp = %v", got)
	}
}

func TestDistAndLen(t *testing.T) {
	if d := V(1, 1, 1).Dist(V(1, 1, 1)); d != 0 {
		t.Errorf("Dist same = %v", d)
	}
	if d := V(0, 0, 0).Dist(V(3, 4, 0)); !almostEq(d, 5) {
		t.Errorf("Dist = %v", d)
	}
	if d := V(0, 0, 0).DistSq(V(3, 4, 0)); !almostEq(d, 25) {
		t.Errorf("DistSq = %v", d)
	}
}

func TestYaw(t *testing.T) {
	if y := V(1, 0, 0).Yaw(); !almostEq(y, 0) {
		t.Errorf("Yaw(+x) = %v", y)
	}
	if y := V(0, 1, 0).Yaw(); !almostEq(y, math.Pi/2) {
		t.Errorf("Yaw(+y) = %v", y)
	}
	if y := V(-1, 0, 0).Yaw(); !almostEq(y, math.Pi) {
		t.Errorf("Yaw(-x) = %v", y)
	}
}

func TestIsFinite(t *testing.T) {
	if !V(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	for _, bad := range []Vec3{
		{X: math.NaN()}, {Y: math.Inf(1)}, {Z: math.Inf(-1)},
	} {
		if bad.IsFinite() {
			t.Errorf("%v reported finite", bad)
		}
	}
}

func TestMinMaxAbs(t *testing.T) {
	a, b := V(1, -2, 3), V(-1, 2, -3)
	if got := a.Max(b); got != V(1, 2, 3) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Min(b); got != V(-1, -2, -3) {
		t.Errorf("Min = %v", got)
	}
	if got := b.Abs(); got != V(1, 2, 3) {
		t.Errorf("Abs = %v", got)
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi}, // wraps to (−π, π]
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); !almostEq(got, c.want) {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	f := func(a float64) bool {
		x := WrapAngle(clampMag(a))
		return x > -math.Pi-1e-9 && x <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// wrapLoop is WrapAngle's 2π-step loop alone, the reference for every angle
// within wrapLoopBound.
func wrapLoop(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// TestWrapAngleEdges pins the ±π edges, the loop bound, and the
// constant-time reduction past it: a huge finite angle, where a−2π rounds
// back to a and the loop alone never returned, wraps to its IEEE remainder
// in (−π, π], an angle just past the bound wraps to nearly the direction of
// the bound itself, and ±Inf and NaN give NaN.
func TestWrapAngleEdges(t *testing.T) {
	exact := []struct{ in, want float64 }{
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{math.Nextafter(-math.Pi, 0), math.Nextafter(-math.Pi, 0)},
		{wrapLoopBound, wrapLoop(wrapLoopBound)},
		{-wrapLoopBound, wrapLoop(-wrapLoopBound)},
	}
	for _, c := range exact {
		if got := WrapAngle(c.in); got != c.want {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, a := range []float64{wrapLoopBound, -wrapLoopBound} {
		past := math.Nextafter(a, 2*a)
		if d := math.Abs(WrapAngle(past) - WrapAngle(a)); d > 1e-12 && d < 2*math.Pi-1e-12 {
			t.Errorf("WrapAngle across the loop bound %v jumps by %v", a, d)
		}
	}
	for _, a := range []float64{1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 1e17, -3e16,
		math.Nextafter(wrapLoopBound, math.Inf(1)), math.Nextafter(-wrapLoopBound, math.Inf(-1))} {
		got := WrapAngle(a)
		if !(got > -math.Pi && got <= math.Pi) {
			t.Errorf("WrapAngle(%g) = %v, outside (-π, π]", a, got)
		}
		if want := math.Remainder(a, 2*math.Pi); got != want && !(want == -math.Pi && got == math.Pi) {
			t.Errorf("WrapAngle(%g) = %v, want the IEEE remainder %v", a, got, want)
		}
	}
	for _, a := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := WrapAngle(a); !math.IsNaN(got) {
			t.Errorf("WrapAngle(%v) = %v, want NaN", a, got)
		}
	}
}

// TestWrapAngleMatchesLoopWithinBound is the property that keeps recorded
// flights byte-identical: within wrapLoopBound WrapAngle returns the loop's
// bits exactly.
func TestWrapAngleMatchesLoopWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	angles := []float64{wrapLoopBound, -wrapLoopBound, 0, math.Copysign(0, -1)}
	for k := -64; k <= 64; k++ { // the multiples of π and their neighbours
		a := float64(k) * math.Pi
		angles = append(angles, a, math.Nextafter(a, math.Inf(1)), math.Nextafter(a, math.Inf(-1)))
	}
	for i := 0; i < 100000; i++ {
		angles = append(angles, (2*rng.Float64()-1)*wrapLoopBound)
	}
	for _, a := range angles {
		if math.Abs(a) > wrapLoopBound {
			continue
		}
		if got, want := WrapAngle(a), wrapLoop(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WrapAngle(%v) = %v, the loop gives %v", a, got, want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	if d := AngleDiff(0.1, -0.1); !almostEq(d, 0.2) {
		t.Errorf("AngleDiff = %v", d)
	}
	// Across the wrap boundary the short way.
	if d := AngleDiff(math.Pi-0.1, -math.Pi+0.1); !almostEq(d, -0.2) {
		t.Errorf("AngleDiff wrap = %v", d)
	}
}

func TestClampf(t *testing.T) {
	if Clampf(5, 0, 1) != 1 || Clampf(-5, 0, 1) != 0 || Clampf(0.5, 0, 1) != 0.5 {
		t.Error("Clampf misbehaves")
	}
}
