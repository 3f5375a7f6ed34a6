package octomap

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mavfi/internal/geom"
)

// testPolicy is the navigation policy the pipeline uses: optimistic unknown
// space, vehicle radius comparable to the airframe.
var testPolicy = QueryPolicy{UnknownIsFree: true, Radius: 0.55}

// queryTestTree builds a map with a realistic occupied/free/unknown mix by
// integrating random depth scans from a few origins.
func queryTestTree(seed int64) *Tree { return queryScans(newTestTree(), seed) }

// bricksOnly sets aside the class grid and the miss-chain codes of a tree
// that holds no evidence yet, so every voxel it is fed lives in a brick and
// every probe classifies from its brick: the control the grid and the chain
// are checked against.
func bricksOnly(tr *Tree) *Tree {
	if tr.LeafUpdates() != 0 {
		panic("bricksOnly: the tree already holds evidence")
	}
	tr.grid, tr.codes = nil, nil
	return tr
}

// queryScans integrates queryTestTree's scans for seed into tr.
func queryScans(tr *Tree, seed int64) *Tree {
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < 6; s++ {
		origin := geom.V(rng.Float64()*28+2, rng.Float64()*28+2, rng.Float64()*12+2)
		tr.InsertCloud(origin, randomScan(rng, origin, 80))
	}
	return tr
}

// refSegmentFree is the fine-sampled reference the DDA walk must refine:
// PointFree sampled at `step` spacing along a→b (the pre-PR3 implementation
// with a much smaller step).
func refSegmentFree(t *Tree, a, b geom.Vec3, q QueryPolicy, step float64) bool {
	n := int(math.Ceil(a.Dist(b)/step)) + 1
	for i := 0; i <= n; i++ {
		if !t.PointFree(a.Lerp(b, float64(i)/float64(n)), q) {
			return false
		}
	}
	return true
}

// refFirstBlocked is the fine-sampled FirstBlocked reference.
func refFirstBlocked(t *Tree, a, b geom.Vec3, q QueryPolicy, step float64) (float64, bool) {
	n := int(math.Ceil(a.Dist(b)/step)) + 1
	for i := 0; i <= n; i++ {
		f := float64(i) / float64(n)
		if !t.PointFree(a.Lerp(b, f), q) {
			return f, true
		}
	}
	return 0, false
}

// crossedVoxels enumerates, by brute force over the segment's bounding key
// range, every leaf voxel whose AABB the segment a→b intersects — an
// independent (slab-method) oracle for the DDA walk — mapped to the
// parametric position at which the segment enters the voxel.
func crossedVoxels(t *Tree, a, b geom.Vec3) map[[3]int]float64 {
	out := map[[3]int]float64{}
	lo, hi := a.Min(b), a.Max(b)
	r := t.resolution
	kx0 := int(math.Floor((lo.X-t.origin.X)/r)) - 1
	ky0 := int(math.Floor((lo.Y-t.origin.Y)/r)) - 1
	kz0 := int(math.Floor((lo.Z-t.origin.Z)/r)) - 1
	kx1 := int(math.Floor((hi.X-t.origin.X)/r)) + 1
	ky1 := int(math.Floor((hi.Y-t.origin.Y)/r)) + 1
	kz1 := int(math.Floor((hi.Z-t.origin.Z)/r)) + 1
	maxKey := int(t.rootSize/r) - 1
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > maxKey {
			return maxKey
		}
		return v
	}
	kx0, ky0, kz0 = clamp(kx0), clamp(ky0), clamp(kz0)
	kx1, ky1, kz1 = clamp(kx1), clamp(ky1), clamp(kz1)
	for x := kx0; x <= kx1; x++ {
		for y := ky0; y <= ky1; y++ {
			for z := kz0; z <= kz1; z++ {
				vox := geom.Box(
					t.origin.Add(geom.V(float64(x)*r, float64(y)*r, float64(z)*r)),
					t.origin.Add(geom.V(float64(x+1)*r, float64(y+1)*r, float64(z+1)*r)),
				)
				if hit, t0, t1 := vox.SegmentIntersection(a, b); hit && t1-t0 > 1e-9 {
					out[[3]int{x, y, z}] = t0
				}
			}
		}
	}
	return out
}

func randomInteriorPoint(rng *rand.Rand) geom.Vec3 {
	return geom.V(rng.Float64()*30+1, rng.Float64()*30+1, rng.Float64()*14+1)
}

// TestWalkRayVisitsExactCrossedVoxels pins the DDA enumeration itself: for
// random in-volume segments, the walker must yield exactly the voxels whose
// AABBs the segment intersects, per the independent slab-method oracle.
func TestWalkRayVisitsExactCrossedVoxels(t *testing.T) {
	tr := newTestTree()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		a, b := randomInteriorPoint(rng), randomInteriorPoint(rng)
		got := map[[3]int]bool{}
		tr.walkRay(a, b, func(x, y, z int, last bool) {
			got[[3]int{x, y, z}] = true
		})
		want := crossedVoxels(tr, a, b)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %v→%v walk visited %d voxels, oracle says %d", trial, a, b, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: %v→%v walk missed crossed voxel %v", trial, a, b, k)
			}
		}
	}
}

// TestSegmentFreeMatchesFineSampledReference is the PR3 equivalence gate:
// against a reference that samples PointFree at resolution/64 (32× finer
// than the pre-PR3 implementation), the DDA walk must agree — except that it
// may additionally catch a blocked voxel even that sampling steps over, and
// then the disagreement must be certified by the brute-force voxel oracle.
func TestSegmentFreeMatchesFineSampledReference(t *testing.T) {
	tr := queryTestTree(21)
	rng := rand.New(rand.NewSource(22))
	fine := tr.Resolution() / 64
	refined := 0
	for trial := 0; trial < 400; trial++ {
		a, b := randomInteriorPoint(rng), randomInteriorPoint(rng)
		got := tr.SegmentFree(a, b, testPolicy)
		want := refSegmentFree(tr, a, b, testPolicy, fine)
		if got == want {
			continue
		}
		if got && !want {
			t.Fatalf("trial %d: %v→%v DDA says free, fine-sampled reference found a collision", trial, a, b)
		}
		// DDA blocked where even fine sampling saw nothing: legitimate only
		// if some probe ray truly crosses a blocked voxel.
		if !segmentCrossesBlocked(tr, a, b, testPolicy) {
			t.Fatalf("trial %d: %v→%v DDA says blocked but no probe ray crosses a blocked voxel", trial, a, b)
		}
		refined++
	}
	t.Logf("DDA refined %d/400 sampled answers", refined)
}

// segmentCrossesBlocked reports whether any of the 7 probe rays of a→b
// crosses a blocked voxel or leaves the volume, per the brute-force oracle.
func segmentCrossesBlocked(tr *Tree, a, b geom.Vec3, q QueryPolicy) bool {
	rays := [][2]geom.Vec3{{a, b}}
	for _, d := range probeOffsets(q.Radius) {
		rays = append(rays, [2]geom.Vec3{a.Add(d), b.Add(d)})
	}
	for _, ray := range rays {
		if _, _, _, ok := tr.key(ray[0]); !ok {
			return true
		}
		if _, _, _, ok := tr.key(ray[1]); !ok {
			return true
		}
		for k := range crossedVoxels(tr, ray[0], ray[1]) {
			if q.blocked(tr.classify(k[0], k[1], k[2])) {
				return true
			}
		}
	}
	return false
}

// oracleFirstBlocked computes the exact first-collision fraction by brute
// force: the minimum, over the 7 probe rays, of the entry parameter of every
// blocked voxel the ray crosses (per the slab-method voxel oracle).
func oracleFirstBlocked(tr *Tree, a, b geom.Vec3, q QueryPolicy) (float64, bool) {
	first := math.Inf(1)
	rays := [][2]geom.Vec3{{a, b}}
	for _, d := range probeOffsets(q.Radius) {
		rays = append(rays, [2]geom.Vec3{a.Add(d), b.Add(d)})
	}
	for _, ray := range rays {
		if _, _, _, ok := tr.key(ray[0]); !ok {
			return 0, true
		}
		for k, entry := range crossedVoxels(tr, ray[0], ray[1]) {
			if q.blocked(tr.classify(k[0], k[1], k[2])) && entry < first {
				first = entry
			}
		}
	}
	if math.IsInf(first, 1) {
		return 0, false
	}
	return first, true
}

// TestFirstBlockedMatchesOracleAndReference checks the reported collision
// fraction two ways: the DDA must never miss a collision the fine-sampled
// reference finds (nor report one later than it), and when it reports a
// collision the fraction must match the exact brute-force voxel oracle.
func TestFirstBlockedMatchesOracleAndReference(t *testing.T) {
	tr := queryTestTree(31)
	rng := rand.New(rand.NewSource(32))
	fine := tr.Resolution() / 64
	for trial := 0; trial < 400; trial++ {
		a, b := randomInteriorPoint(rng), randomInteriorPoint(rng)
		gotF, got := tr.FirstBlocked(a, b, testPolicy)
		wantF, want := refFirstBlocked(tr, a, b, testPolicy, fine)
		if want && !got {
			t.Fatalf("trial %d: %v→%v reference found a collision at %v, DDA found none", trial, a, b, wantF)
		}
		if got && want && gotF > wantF+1e-9 {
			t.Fatalf("trial %d: %v→%v DDA frac %v lags the sampled frac %v", trial, a, b, gotF, wantF)
		}
		oracleF, oracleOK := oracleFirstBlocked(tr, a, b, testPolicy)
		if got != oracleOK {
			t.Fatalf("trial %d: %v→%v DDA collision=%v but oracle says %v", trial, a, b, got, oracleOK)
		}
		if got && math.Abs(gotF-oracleF) > 1e-6 {
			t.Fatalf("trial %d: %v→%v DDA frac %v != oracle frac %v", trial, a, b, gotF, oracleF)
		}
	}
}

// TestClassCacheTransparent: queries classifying from the exact grid must
// be indistinguishable from a control tree built without the grid and the
// miss chain (every voxel in a brick, every probe reads its brick), across
// interleaved map mutations of both.
func TestClassCacheTransparent(t *testing.T) {
	cached := queryTestTree(41)
	plain := queryScans(bricksOnly(newTestTree()), 41)
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			a, b := randomInteriorPoint(rng), randomInteriorPoint(rng)
			if ca, pa := cached.At(a), plain.At(a); ca != pa {
				t.Fatalf("round %d: At(%v) grid %v != bricks %v", round, a, ca, pa)
			}
			if cs, ps := cached.SegmentFree(a, b, testPolicy), plain.SegmentFree(a, b, testPolicy); cs != ps {
				t.Fatalf("round %d: SegmentFree(%v,%v) grid %v != bricks %v", round, a, b, cs, ps)
			}
			cf, cok := cached.FirstBlocked(a, b, testPolicy)
			pf, pok := plain.FirstBlocked(a, b, testPolicy)
			if cok != pok || math.Float64bits(cf) != math.Float64bits(pf) {
				t.Fatalf("round %d: FirstBlocked(%v,%v) grid (%v,%v) != bricks (%v,%v)", round, a, b, cf, cok, pf, pok)
			}
		}
		// Mutate both maps identically; the grid must follow every write.
		origin := randomInteriorPoint(rng)
		pts := randomScan(rng, origin, 40)
		cached.InsertCloud(origin, pts)
		plain.InsertCloud(origin, pts)
	}
	assertGridExact(t, cached, "after interleaved mutations")
}

// TestClassGridExact flips one voxel between Free and Occupied 70 times
// through MarkFree/MarkOccupied (the scenario of the retired epoch-wrap
// test), plus a carve through it, and requires its grid byte, At and the
// summary to follow every single update, with the whole grid exact at the
// end.
func TestClassGridExact(t *testing.T) {
	tr := newTestTree()
	p := geom.V(5.25, 5.25, 5.25)
	x, y, z, _ := tr.key(p)
	gridAt := func() Occupancy { return Occupancy(tr.grid[(z*tr.ny+y)*tr.nx+x]) }
	if gridAt() != Unknown {
		t.Fatal("fresh grid byte not Unknown")
	}
	for i := 0; i < 70; i++ {
		want := Free
		if i%2 == 1 {
			want = Occupied
		}
		for tr.At(p) != want {
			if want == Occupied {
				tr.MarkOccupied(p)
			} else {
				tr.MarkFree(p)
			}
			lo, _ := tr.lookup(x, y, z)
			if got := gridAt(); got != tr.classOf(lo) {
				t.Fatalf("iteration %d: grid byte %v after an update to %v", i, got, lo)
			}
			if got := tr.sum.layers[tr.cell(x, y, z)]; (got == layerUnit(z)) != (tr.classOf(lo) == Occupied) {
				t.Fatalf("iteration %d: summary word %016x for a voxel at %v", i, got, lo)
			}
		}
	}
	tr.InsertRay(geom.V(0.25, 5.25, 5.25), geom.V(31.75, 5.25, 5.25), false)
	assertGridExact(t, tr, "after 70 flips and a carve")
	assertSummaryExact(t, tr, "after 70 flips and a carve")
}

// TestFirstBlockedStartsInsideOccupiedVoxel: a ray beginning inside a
// blocked voxel must report a collision at exactly frac 0 (the perception
// kernel turns this into time-to-collision 0, an immediate brake).
func TestFirstBlockedStartsInsideOccupiedVoxel(t *testing.T) {
	tr := newTestTree()
	a := geom.V(8.25, 8.25, 8.25)
	tr.MarkOccupied(a)
	q := QueryPolicy{UnknownIsFree: true}
	frac, ok := tr.FirstBlocked(a, geom.V(20, 8.25, 8.25), q)
	if !ok || frac != 0 {
		t.Fatalf("FirstBlocked from inside occupied voxel = (%v, %v), want (0, true)", frac, ok)
	}
	if tr.SegmentFree(a, geom.V(20, 8.25, 8.25), q) {
		t.Fatal("SegmentFree from inside occupied voxel = true")
	}
	// With the vehicle radius, starting adjacent to the occupied voxel also
	// collides at frac 0 via the probe offsets.
	frac, ok = tr.FirstBlocked(geom.V(8.25, 8.65, 8.25), geom.V(20, 8.65, 8.25), QueryPolicy{UnknownIsFree: true, Radius: 0.55})
	if !ok || frac != 0 {
		t.Fatalf("FirstBlocked with probe inside occupied voxel = (%v, %v), want (0, true)", frac, ok)
	}
}

// TestSegmentQueriesZeroLength: degenerate segments must behave exactly like
// point queries.
func TestSegmentQueriesZeroLength(t *testing.T) {
	tr := newTestTree()
	occ := geom.V(4.25, 4.25, 4.25)
	tr.MarkOccupied(occ)
	q := QueryPolicy{UnknownIsFree: true}
	if tr.SegmentFree(occ, occ, q) {
		t.Fatal("zero-length segment in occupied voxel reported free")
	}
	if frac, ok := tr.FirstBlocked(occ, occ, q); !ok || frac != 0 {
		t.Fatalf("zero-length FirstBlocked in occupied voxel = (%v, %v), want (0, true)", frac, ok)
	}
	free := geom.V(10.25, 10.25, 10.25)
	tr.MarkFree(free)
	if !tr.SegmentFree(free, free, q) {
		t.Fatal("zero-length segment in free voxel reported blocked")
	}
	if _, ok := tr.FirstBlocked(free, free, q); ok {
		t.Fatal("zero-length FirstBlocked in free voxel reported a collision")
	}
	// Pessimistic policy: a zero-length segment in unknown space is blocked.
	if tr.SegmentFree(geom.V(20.25, 20.25, 8.25), geom.V(20.25, 20.25, 8.25), QueryPolicy{}) {
		t.Fatal("zero-length segment in unknown voxel reported free under pessimistic policy")
	}
}

// TestSegmentQueriesAxisAlignedOnVoxelBoundary pins the floor convention for
// rays travelling exactly along a voxel boundary plane: a coordinate exactly
// on the boundary belongs to the upper voxel (key = floor(coord/res)), so
// occupancy in the lower voxel row must not block the ray and occupancy in
// the upper row must.
func TestSegmentQueriesAxisAlignedOnVoxelBoundary(t *testing.T) {
	q := QueryPolicy{UnknownIsFree: true}
	a := geom.V(2.0, 6.0, 4.25) // y=6.0 is a voxel boundary at res 0.5
	b := geom.V(14.0, 6.0, 4.25)

	lower := newTestTree()
	for x := 0.25; x < 16; x += 0.5 {
		lower.MarkOccupied(geom.V(x, 5.75, 4.25)) // row below the boundary
	}
	if !lower.SegmentFree(a, b, q) {
		t.Fatal("boundary ray blocked by the voxel row below the boundary")
	}

	upper := newTestTree()
	for x := 0.25; x < 16; x += 0.5 {
		upper.MarkOccupied(geom.V(x, 6.25, 4.25)) // row containing y=6.0
	}
	if upper.SegmentFree(a, b, q) {
		t.Fatal("boundary ray not blocked by the voxel row containing the boundary")
	}
	if frac, ok := upper.FirstBlocked(a, b, q); !ok || frac > 1e-6 {
		t.Fatalf("boundary ray FirstBlocked = (%v, %v), want a collision at ~0", frac, ok)
	}
}

// TestSegmentQueriesDegenerateAxisDelta pins the walker-overshoot guard: an
// axis delta below the DDA's 1e-12 threshold (step 0) whose endpoints still
// straddle a voxel boundary makes the end key unreachable, and the walker
// burns its defensive step budget drifting past the clipped key range —
// queries must treat those artifact keys as walk exhaustion, not index the
// classification grid with them or misreport a collision.
func TestSegmentQueriesDegenerateAxisDelta(t *testing.T) {
	tr := newTestTree()
	q := QueryPolicy{UnknownIsFree: true}
	a := geom.V(5.25, 6.0-4e-13, 1.2)
	b := geom.V(5.25, 6.0+4e-13, 0.1)
	if !tr.SegmentFree(a, b, q) {
		t.Fatal("degenerate-axis segment in unknown-free space reported blocked")
	}
	if _, ok := tr.FirstBlocked(a, b, q); ok {
		t.Fatal("degenerate-axis segment in unknown-free space reported a collision")
	}
	// The same geometry against a pessimistic policy is blocked by the very
	// first (unknown) voxel, before any overshoot.
	if tr.SegmentFree(a, b, QueryPolicy{}) {
		t.Fatal("degenerate-axis segment in unknown space reported free under pessimistic policy")
	}

	// Overshoot voxels can also stay in range: an occupied voxel past the
	// segment end, in line with the drifting walk, must not produce a
	// phantom collision.
	tr2 := newTestTree()
	a2 := geom.V(5.25, 6.0-4e-13, 4.25)
	b2 := geom.V(5.25, 6.0+4e-13, 3.25)
	tr2.MarkOccupied(geom.V(5.25, 5.75, 2.25)) // below b2, never crossed
	if !tr2.SegmentFree(a2, b2, q) {
		t.Fatal("occupied voxel beyond the segment end blocked a degenerate-axis segment")
	}
	if frac, ok := tr2.FirstBlocked(a2, b2, q); ok {
		t.Fatalf("occupied voxel beyond the segment end reported a phantom collision at %v", frac)
	}
}

// TestSegmentQueriesLeavingVolume: a segment exiting the mapped volume is in
// collision at the exit crossing (out-of-volume space is Occupied, as in At).
func TestSegmentQueriesLeavingVolume(t *testing.T) {
	tr := newTestTree() // volume spans x ∈ [0,32)... root cube; bounds x ≤ 32
	q := QueryPolicy{UnknownIsFree: true}
	a := geom.V(28, 8.25, 8.25)
	b := geom.V(40, 8.25, 8.25) // exits through the x=32 root face at frac 1/3
	if tr.SegmentFree(a, b, q) {
		t.Fatal("volume-exiting segment reported free")
	}
	frac, ok := tr.FirstBlocked(a, b, q)
	if !ok {
		t.Fatal("volume-exiting segment reported no collision")
	}
	if want := (32.0 - 28.0) / 12.0; math.Abs(frac-want) > 1e-3 {
		t.Fatalf("volume exit frac = %v, want ≈ %v", frac, want)
	}
	// Starting outside is an immediate collision.
	if frac, ok := tr.FirstBlocked(geom.V(-1, 8, 8), geom.V(5, 8, 8), q); !ok || frac != 0 {
		t.Fatalf("segment starting outside volume = (%v, %v), want (0, true)", frac, ok)
	}
}

// withAxis returns p with its coordinate on axis (0 x, 1 y, 2 z) set to v.
func withAxis(p geom.Vec3, axis int, v float64) geom.Vec3 {
	switch axis {
	case 0:
		p.X = v
	case 1:
		p.Y = v
	default:
		p.Z = v
	}
	return p
}

// TestNaNCoordinateIsOutOfVolume pins that a NaN coordinate on any axis is
// out of the mapped volume at every entry point, exactly as +Inf on that
// axis is, where a NaN used to key as int(NaN) and index out of range or
// through a wrapped index: At reads Occupied, PointFree and SegmentFree
// report blocked, FirstBlocked reports a collision (never "nothing ahead")
// at a fraction in [0, 1], and InsertCloud leaves the tree exactly as the
// same scan with +Inf there does, whether the NaN is in a ray's endpoint or
// in the scan origin.
func TestNaNCoordinateIsOutOfVolume(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(16, 16, 16))
	tr := New(bounds, 0.5, DefaultParams())
	rng := rand.New(rand.NewSource(3))
	origin := geom.V(8, 8, 8)
	tr.InsertCloud(origin, randomScan(rng, origin, 200))
	a, b := geom.V(3, 4, 5), geom.V(12, 11, 9)
	policies := []QueryPolicy{
		{UnknownIsFree: true, Radius: 0.55},
		{UnknownIsFree: true},
		{Radius: 0.55},
	}
	nan, inf := math.NaN(), math.Inf(1)
	for axis := 0; axis < 3; axis++ {
		name := fmt.Sprintf("axis %d", axis)
		if got := tr.At(withAxis(a, axis, nan)); got != Occupied {
			t.Errorf("%s: At = %v, want Occupied", name, got)
		}
		for _, q := range policies {
			if tr.PointFree(withAxis(a, axis, nan), q) {
				t.Errorf("%s %+v: PointFree reported a NaN point free", name, q)
			}
			for _, seg := range [][2]geom.Vec3{
				{withAxis(a, axis, nan), b}, {a, withAxis(b, axis, nan)},
			} {
				if tr.SegmentFree(seg[0], seg[1], q) {
					t.Errorf("%s %+v: SegmentFree(%v, %v) reported free", name, q, seg[0], seg[1])
				}
				f, ok := tr.FirstBlocked(seg[0], seg[1], q)
				if !ok || !(f >= 0 && f <= 1) {
					t.Errorf("%s %+v: FirstBlocked(%v, %v) = (%v, %v), want a collision in [0, 1]",
						name, q, seg[0], seg[1], f, ok)
				}
			}
		}

		// A NaN endpoint inside a scan drops that ray and keeps the rest.
		scan := randomScan(rng, origin, 30)
		withNaN, withInf := slices.Clone(scan), slices.Clone(scan)
		withNaN[7].End = withAxis(scan[7].End, axis, nan)
		withInf[7].End = withAxis(scan[7].End, axis, inf)
		got, want := New(bounds, 0.5, DefaultParams()), New(bounds, 0.5, DefaultParams())
		got.InsertCloud(origin, withNaN)
		want.InsertCloud(origin, withInf)
		assertTwinsEqual(t, got, want, name+" endpoint")
		compareTrees(t, got, want)

		// A NaN origin carves nothing; the endpoints still land.
		got, want = New(bounds, 0.5, DefaultParams()), New(bounds, 0.5, DefaultParams())
		got.InsertCloud(withAxis(origin, axis, nan), scan)
		want.InsertCloud(withAxis(origin, axis, inf), scan)
		assertTwinsEqual(t, got, want, name+" origin")
		compareTrees(t, got, want)
	}
}
