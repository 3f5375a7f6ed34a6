package octomap

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// bundleBox returns the prescan's per-axis key box of the radius-r query
// a→b, and ok=false where the prescan leaves the query to the walks.
func bundleBox(tr *Tree, a, b geom.Vec3, r float64) (lo, hi [3]int, ok bool) {
	av, bv, ov := [3]float64{a.X, a.Y, a.Z}, [3]float64{b.X, b.Y, b.Z}, [3]float64{tr.origin.X, tr.origin.Y, tr.origin.Z}
	for i := range 3 {
		if lo[i], hi[i], ok = tr.axisBundleKeys(av[i], bv[i], r, ov[i]); !ok {
			return lo, hi, false
		}
	}
	return lo, hi, true
}

// walkProbes returns every voxel the seven walks of SegmentFree(a, b, q)
// classify, in order, with the summary disarmed (so the prescan stands
// aside) and the grid set aside (so every classification is recorded).
func walkProbes(tr *Tree, a, b geom.Vec3, q QueryPolicy) [][3]int {
	saved := tr.sum.layers
	tr.sum.layers = nil
	defer func() { tr.sum.layers = saved }()
	return recordProbes(tr, func() { tr.SegmentFree(a, b, q) })
}

// checkBundleKeys fails t when a walk of the radius-r query a→b classifies
// a voxel outside the prescan's key box. On an empty map every walk runs to
// its end, so every voxel a walk can reach is recorded. It returns how many
// probes fell outside the box shrunk by bundleSlack (the endpoint-key hull),
// and whether the prescan would answer the query at all.
func checkBundleKeys(t testing.TB, tr *Tree, a, b geom.Vec3, r float64) (pastHull int, ok bool) {
	t.Helper()
	lo, hi, ok := bundleBox(tr, a, b, r)
	if !ok {
		return 0, false
	}
	for _, p := range walkProbes(tr, a, b, QueryPolicy{UnknownIsFree: true, Radius: r}) {
		past := false
		for i := range 3 {
			if p[i] < lo[i] || p[i] > hi[i] {
				t.Fatalf("%v→%v r=%v: a walk classifies %v outside the prescan box %v..%v", a, b, r, p, lo, hi)
			}
			past = past || (p[i] < lo[i]+bundleSlack && lo[i] > 0) || (p[i] > hi[i]-bundleSlack && hi[i] < tr.maxKey-1)
		}
		if past {
			pastHull++
		}
	}
	return pastHull, true
}

// boundarySegments draws the segments the prescan's box is most likely to
// miss a voxel of: endpoints on voxel boundaries and 1 ulp either side of
// them, endpoints whose offset coordinate fl(c±r) lands 1 ulp short of a
// boundary, axes whose delta is below the DDA's step threshold while their
// endpoints straddle a boundary, zero-length and axis-aligned segments, and
// offset rays grazing the volume faces.
func boundarySegments(rng *rand.Rand, r, side float64, n int) [][2]geom.Vec3 {
	const res = 0.5
	onBoundary := func(lo, hi float64) float64 {
		v := math.Round((lo+rng.Float64()*(hi-lo))/res) * res
		switch rng.Intn(3) {
		case 0:
			return math.Nextafter(v, math.Inf(-1))
		case 1:
			return math.Nextafter(v, math.Inf(1))
		}
		return v
	}
	// shortOfBoundary returns c with fl(c±r) one ulp inside a boundary.
	shortOfBoundary := func(lo, hi float64) float64 {
		v := math.Round((lo+rng.Float64()*(hi-lo))/res) * res
		if rng.Intn(2) == 0 {
			return math.Nextafter(v, math.Inf(-1)) - r
		}
		return math.Nextafter(v, math.Inf(1)) + r
	}
	segs := make([][2]geom.Vec3, 0, n)
	for len(segs) < n {
		lo, hi := r+0.5, side-r-0.5
		coord := func() float64 { return lo + rng.Float64()*(hi-lo) }
		var a, b [3]float64
		for i := range 3 {
			a[i], b[i] = coord(), coord()
		}
		// Planner-length: pull b toward a.
		for i := range 3 {
			b[i] = a[i] + (b[i]-a[i])*rng.Float64()*0.4
		}
		switch len(segs) % 7 {
		case 0: // boundary endpoints
			for i := range 3 {
				a[i], b[i] = onBoundary(lo, hi), onBoundary(lo, hi)
			}
		case 1: // offset endpoints an ulp short of a boundary
			for i := range 3 {
				a[i] = shortOfBoundary(lo, hi)
				b[i] = shortOfBoundary(math.Max(lo, a[i]-3), math.Min(hi, a[i]+3))
			}
		case 2: // a step-0 axis straddling a boundary
			i := rng.Intn(3)
			v := onBoundary(lo, hi)
			a[i], b[i] = v-rng.Float64()*4e-13, v+rng.Float64()*4e-13
		case 3: // zero length
			b = a
		case 4: // axis-aligned, often on a boundary plane
			i := rng.Intn(3)
			for j := range 3 {
				if j != i {
					if rng.Intn(2) == 0 {
						a[j] = onBoundary(lo, hi)
					}
					b[j] = a[j]
				}
			}
		case 5: // offset rays at the volume faces
			for i := range 3 {
				switch rng.Intn(3) {
				case 0:
					a[i] = r + rng.Float64()*1e-12
				case 1:
					b[i] = math.Nextafter(side-r, 0)
				}
			}
		}
		segs = append(segs, [2]geom.Vec3{{X: a[0], Y: a[1], Z: a[2]}, {X: b[0], Y: b[1], Z: b[2]}})
	}
	return segs
}

// TestBundleKeysCoverWalks pins the prescan's coverage argument
// (axisBundleKeys) probe by probe: on an empty map, with the summary and the
// grid set aside, every voxel any of SegmentFree's seven walks classifies
// lies inside the prescan's key box, over the boundary-heavy segment mix at
// the radii the pipeline's planner and collision check use, one voxel, and
// far under one. The prescan must have answered most of those queries, and
// some probe must fall past the endpoint-key hull, so that a slack of 0
// would have failed and the bound is shown to be tight.
func TestBundleKeysCoverWalks(t *testing.T) {
	const side = 16.0
	tr := New(geom.Box(geom.V(0, 0, 0), geom.V(side, side, side)), 0.5, DefaultParams())
	rng := rand.New(rand.NewSource(91))
	answered, queries, pastHull := 0, 0, 0
	for _, r := range []float64{0.35, 0.55, 0.5, 0.25, 1e-9} {
		for _, s := range boundarySegments(rng, r, side, 3000) {
			n, ok := checkBundleKeys(t, tr, s[0], s[1], r)
			queries++
			if ok {
				answered++
			}
			pastHull += n
		}
	}
	if answered < queries/2 || pastHull == 0 {
		t.Fatalf("vacuous run: the box held %d of %d queries, %d probes fell past the endpoint-key hull",
			answered, queries, pastHull)
	}
	t.Logf("%d of %d queries boxed, %d probes past the endpoint-key hull", answered, queries, pastHull)
}

// FuzzBundleKeys checks the same property on arbitrary segments and radii
// over a 16 m cube: wherever the prescan would answer, no walk classifies a
// voxel outside its box.
func FuzzBundleKeys(f *testing.F) {
	f.Add(2.0, 3.0, 1.5, 6.0, 3.0, 1.5, 0.35)
	f.Add(math.Nextafter(2, 0), 2.25, 4.75, math.Nextafter(5.5, 9), 2.25, 4.75, 0.55)
	f.Add(3.0-4e-13, 7.0, 2.0, 3.0+4e-13, 9.0, 2.6, 0.5)
	f.Add(0.35, 0.35, 0.35, 15.6, 15.6, 15.6, 0.35)
	f.Add(5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 0.25)
	tr := New(geom.Box(geom.V(0, 0, 0), geom.V(16, 16, 16)), 0.5, DefaultParams())
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz, r float64) {
		if !(r > 0) || r > 4 {
			return // the prescan runs for positive radii; a huge one boxes nothing
		}
		a, b := geom.V(ax, ay, az), geom.V(bx, by, bz)
		if a.Dist(b) > 12 {
			return // keep the recorded walks short
		}
		checkBundleKeys(t, tr, a, b, r)
	})
}
