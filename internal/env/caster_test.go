package env

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// presetWorlds are the four standard worlds, drawn the way the campaign
// matrix draws them (a generated world from its own rand.Source(1)).
func presetWorlds() []*World {
	return []*World{
		Factory(),
		Farm(),
		Sparse(rand.New(rand.NewSource(1))),
		Dense(rand.New(rand.NewSource(1))),
	}
}

// randomBoxWorld builds a world of n random boxes in a 60×60×20 m volume:
// overlapping, touching the ground or floating, thin or wide, and now and
// then an inverted box (Max below Min on an axis).
func randomBoxWorld(rng *rand.Rand, n int) *World {
	w := &World{Name: "random", Bounds: geom.Box(geom.V(0, 0, 0), geom.V(60, 60, 20))}
	for range n {
		c := geom.V(rng.Float64()*60, rng.Float64()*60, rng.Float64()*10)
		side := geom.V(0.1+rng.Float64()*12, 0.1+rng.Float64()*12, 0.1+rng.Float64()*15)
		ob := geom.BoxAt(c, side)
		if rng.Intn(3) == 0 {
			ob.Min.Z = 0
		}
		if rng.Intn(25) == 0 {
			ob.Min.X, ob.Max.X = ob.Max.X, ob.Min.X
		}
		w.Obstacles = append(w.Obstacles, ob)
	}
	return w
}

// frameDirs returns the depth camera's 24×16 ray fan (90°×60°) at heading
// yaw, built as the camera builds it.
func frameDirs(yaw float64) []geom.Vec3 {
	const rows, cols = 16, 24
	dirs := make([]geom.Vec3, 0, rows*cols)
	for r := range rows {
		el := (0.5 - float64(r)/(rows-1)) * math.Pi / 3
		for c := range cols {
			az := yaw + (float64(c)/(cols-1)-0.5)*math.Pi/2
			dirs = append(dirs, geom.V(math.Cos(el)*math.Cos(az), math.Cos(el)*math.Sin(az), math.Sin(el)))
		}
	}
	return dirs
}

// frameOrigins returns camera origins that exercise the cull's edges: free
// space, the inside, corners and face centres of an obstacle, the ground,
// and origins with NaN or infinite coordinates.
func frameOrigins(rng *rand.Rand, w *World) []geom.Vec3 {
	size := w.Bounds.Size()
	origins := []geom.Vec3{
		geom.V(rng.Float64()*size.X, rng.Float64()*size.Y, 0.5+rng.Float64()*4),
		geom.V(rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z),
		geom.V(rng.Float64()*size.X, rng.Float64()*size.Y, 0),
	}
	if len(w.Obstacles) > 0 {
		ob := w.Obstacles[rng.Intn(len(w.Obstacles))]
		lo, hi := ob.Min, ob.Max
		origins = append(origins,
			ob.Center(),
			lo, hi, geom.V(lo.X, hi.Y, lo.Z), geom.V(hi.X, lo.Y, hi.Z), // corners
			geom.V(lo.X, (lo.Y+hi.Y)/2, (lo.Z+hi.Z)/2), // face centres
			geom.V((lo.X+hi.X)/2, hi.Y, (lo.Z+hi.Z)/2),
			geom.V((lo.X+hi.X)/2, (lo.Y+hi.Y)/2, hi.Z),
		)
	}
	nan, inf := math.NaN(), math.Inf(1)
	p := origins[0]
	for _, v := range []float64{nan, inf, -inf} {
		origins = append(origins, geom.V(v, p.Y, p.Z), geom.V(p.X, v, p.Z), geom.V(p.X, p.Y, v))
	}
	return origins
}

// TestCasterMatchesUnculledScan holds the culled raycast, through a Caster
// reused across frames and through World.Raycast, to the per-obstacle
// RayIntersection scan that tests every obstacle, bit for bit: frames over
// the four preset worlds and over seeded random worlds of 1–11 obstacles,
// from the origins frameOrigins draws, plus a few rays whose direction is
// not finite or degenerate and rays aimed at each obstacle's nearest point
// and corners,
// at the camera's range, a long one and ranges at the obstacles'
// distances. It requires obstacles beyond the camera's range, so that the
// cull cannot pass vacuously.
func TestCasterMatchesUnculledScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	worlds := presetWorlds()
	for n := 1; n <= 11; n++ {
		for range 3 {
			worlds = append(worlds, randomBoxWorld(rng, n))
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	// Directions that are not finite, and finite ones NewRay turns into the
	// zero vector: zero, shorter than its 1e-12 cut-off (one so short that
	// its squared length underflows), and so long that its length overflows.
	// From an origin inside an obstacle those hit it at t = 0.
	odd := []geom.Vec3{
		{X: nan, Y: 0.3, Z: -0.2}, {X: inf, Y: 1, Z: 0}, {X: 0.5, Y: -inf, Z: nan},
		{}, {Z: 1e-162}, {X: 6e-14, Y: -8e-14}, {X: 1e200, Y: 1e200},
	}
	var c Caster
	rays, culled := 0, 0
	frames := 2
	if testing.Short() {
		frames = 1
	}
	for _, w := range worlds {
		if w.index() != nil {
			t.Fatalf("%s: %d obstacles took the indexed path; the cull is not under test", w.Name, len(w.Obstacles))
		}
		for range frames {
			for _, origin := range frameOrigins(rng, w) {
				c.Reset(w, origin)
				dirs := append(frameDirs(rng.Float64()*2*math.Pi), odd...)
				for _, ob := range w.Obstacles {
					// Straight at the obstacle's nearest point, where the hit
					// lies at its distance, and at each of its corners, where
					// the ray only touches the box.
					dirs = append(dirs, ob.ClosestPoint(origin).Sub(origin).Normalize())
					for k := range 8 {
						corner := ob.Min
						if k&1 != 0 {
							corner.X = ob.Max.X
						}
						if k&2 != 0 {
							corner.Y = ob.Max.Y
						}
						if k&4 != 0 {
							corner.Z = ob.Max.Z
						}
						dirs = append(dirs, corner.Sub(origin).Normalize())
					}
				}
				for di, dir := range dirs {
					ranges := []float64{20, 1e4}
					if di%16 == 0 || di >= len(dirs)-9*len(w.Obstacles) {
						// Ranges at an obstacle's distance, where the hit the
						// slab test reports may round below the distance the
						// cull compares against: the margin's case.
						for _, ob := range w.Obstacles {
							if d := ob.Dist(origin); d > 0 && d <= math.MaxFloat64 {
								ranges = append(ranges, math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1)))
							}
						}
					}
					for _, maxRange := range ranges {
						want := linearRaycast(w, origin, dir, maxRange)
						got := c.Raycast(dir, maxRange)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s origin %v dir %v range %v: culled %v, unculled %v",
								w.Name, origin, dir, maxRange, got, want)
						}
						if one := w.Raycast(origin, dir, maxRange); math.Float64bits(one) != math.Float64bits(want) {
							t.Fatalf("%s origin %v dir %v range %v: World.Raycast %v, unculled %v",
								w.Name, origin, dir, maxRange, one, want)
						}
						rays++
					}
				}
				for _, d := range c.dist {
					if d > 20 && d <= math.MaxFloat64 {
						culled++ // beyond any hit at the camera's range
					}
				}
			}
		}
	}
	if culled == 0 {
		t.Fatalf("%d rays, but no obstacle was ever out of reach: the cull was not exercised", rays)
	}
	t.Logf("%d rays matched the unculled scan", rays)
}

// TestCasterReuseAllocFree: re-aiming a Caster that has held a frame of the
// same world allocates nothing, which is what keeps depth capture
// allocation-free.
func TestCasterReuseAllocFree(t *testing.T) {
	w := Factory()
	var c Caster
	c.Reset(w, geom.V(5, 25, 2))
	origin, dir := geom.V(12, 20, 2.5), geom.V(1, 0, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		c.Reset(w, origin)
		c.Raycast(dir, 20)
	}); allocs != 0 {
		t.Fatalf("a reused Caster allocates %v objects per frame, want 0", allocs)
	}
}
