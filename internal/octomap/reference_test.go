package octomap

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// insertRayReference is the per-voxel insertion loop the fused carve
// replaced: rayWalker.next yields each crossed voxel and updateKey applies
// its miss evidence through descend and applyDelta, one call chain per
// voxel, before the endpoint gets its hit or miss. It is kept only as the
// oracle the fused kernel must reproduce bit for bit, and as the before-side
// of BenchmarkInsertRayReference.
func (t *Tree) insertRayReference(origin, end geom.Vec3, hit bool) {
	ex, ey, ez, endOK := t.key(end)
	var w rayWalker
	t.startWalk(&w, origin, end)
	for {
		x, y, z, _, ok := w.next()
		if !ok {
			break
		}
		if endOK && x == ex && y == ey && z == ez {
			continue // endpoint voxel handled below
		}
		t.updateKey(x, y, z, t.params.LogOddsMiss)
	}
	if endOK {
		if hit {
			t.updateKey(ex, ey, ez, t.params.LogOddsHit)
		} else {
			t.updateKey(ex, ey, ez, t.params.LogOddsMiss)
		}
	}
}

// walkRay visits every leaf voxel key from origin to end in order, flagging
// the final voxel: the walker's enumeration as a callback, for the DDA tests.
func (t *Tree) walkRay(origin, end geom.Vec3, visit func(x, y, z int, last bool)) {
	var w rayWalker
	t.startWalk(&w, origin, end)
	for {
		x, y, z, last, ok := w.next()
		if !ok {
			return
		}
		visit(x, y, z, last)
	}
}

// flipBit returns f with one bit of its IEEE-754 representation flipped, the
// corruption the KernelOctoMap fault hook applies to scan endpoints.
func flipBit(f float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(f) ^ 1<<bit)
}

// referenceScans builds the randomized scan schedule the fused-vs-reference
// test feeds both trees: mission-like scans from moving origins, with every
// ray class the fused carve must handle like the per-voxel loop —
//   - endpoints with flipped bits (mantissa, exponent and sign), as the
//     KernelOctoMap hook produces;
//   - rays that start or end outside the volume, so the walk is slab-clipped,
//     and rays that miss it entirely;
//   - the degenerate-axis overshoot rays whose walker overruns the key cube
//     and whose evidence aliases onto masked keys;
//   - repeated rays that drive voxels to both clamps.
func referenceScans(rng *rand.Rand, span float64) []refScan {
	var scans []refScan
	for s := 0; s < 6; s++ {
		origin := geom.V(rng.Float64()*span, rng.Float64()*span, rng.Float64()*span)
		pts := randomScan(rng, origin, 80)
		for i := range pts {
			if rng.Intn(8) == 0 {
				p := &pts[i].End
				switch bit := uint(rng.Intn(64)); rng.Intn(3) {
				case 0:
					p.X = flipBit(p.X, bit)
				case 1:
					p.Y = flipBit(p.Y, bit)
				default:
					p.Z = flipBit(p.Z, bit)
				}
			}
		}
		scans = append(scans, refScan{origin, pts})
	}
	// Slab-clipped rays: origin outside, endpoint inside, and the reverse,
	// plus a ray that never meets the volume.
	out := geom.V(-3, span/2, span/3)
	scans = append(scans, refScan{out, []RayPoint{
		{End: geom.V(span/2, span/2, span/2), Hit: true},
		{End: geom.V(span+4, span/3, span/2), Hit: false},
		{End: geom.V(-9, -9, -9), Hit: true},
	}})
	scans = append(scans, refScan{geom.V(span/2, span/2, span/2), []RayPoint{
		{End: geom.V(span+7, span/2, span/4), Hit: true},
		{End: geom.V(span/3, -6, span/2), Hit: false},
	}})
	// Degenerate-axis overshoot rays (the summary aliasing cases).
	scans = append(scans,
		refScan{geom.V(5.25, 6.0-4e-13, 1.2), []RayPoint{{End: geom.V(5.25, 6.0+4e-13, 0.1), Hit: true}}},
		refScan{geom.V(0.25, 6.0-4e-13, 15.8), []RayPoint{{End: geom.V(0.25, 6.0+4e-13, 15.95), Hit: true}}},
	)
	// Clamp saturation: the same rays repeated until hits saturate the upper
	// clamp at the endpoints and misses the lower clamp along the way, then
	// misses fired into the saturated endpoints to pull them back down.
	origin := geom.V(1.25, 1.25, 1.25)
	var hits, misses []RayPoint
	for i := 0; i < 5; i++ {
		end := geom.V(1.25+float64(i)*2.5, span-1.75, span/2+0.25)
		for rep := 0; rep < 12; rep++ {
			hits = append(hits, RayPoint{End: end, Hit: true})
			misses = append(misses, RayPoint{End: end, Hit: false})
		}
	}
	scans = append(scans, refScan{origin, hits}, refScan{origin, misses}, refScan{origin, hits})
	return scans
}

type refScan struct {
	origin geom.Vec3
	pts    []RayPoint
}

// TestFusedCarveMatchesReference is the equivalence gate for the fused
// carve: the same randomized scans fed to a tree through InsertCloud (and,
// on alternate scans, InsertRay) and to a tree through the per-voxel
// reference loop must leave identical Digests, leaf-update totals, summary
// counts, arena layouts and per-voxel log-odds. Dropping, duplicating or
// reordering a single voxel update fails it.
func TestFusedCarveMatchesReference(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(16, 16, 16))
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 12; trial++ {
		fused := New(bounds, 0.5, DefaultParams())
		ref := New(bounds, 0.5, DefaultParams())
		for i, sc := range referenceScans(rng, 16) {
			if i%2 == 0 {
				fused.InsertCloud(sc.origin, sc.pts)
			} else {
				for _, p := range sc.pts {
					fused.InsertRay(sc.origin, p.End, p.Hit)
				}
			}
			for _, p := range sc.pts {
				ref.insertRayReference(sc.origin, p.End, p.Hit)
			}
		}
		if fused.LeafUpdates() != ref.LeafUpdates() {
			t.Fatalf("trial %d: leaf updates: fused %d, reference %d", trial, fused.LeafUpdates(), ref.LeafUpdates())
		}
		if len(fused.nodes) != len(ref.nodes) {
			t.Fatalf("trial %d: arena: fused %d nodes, reference %d", trial, len(fused.nodes), len(ref.nodes))
		}
		for i := range ref.sum.counts {
			if fused.sum.counts[i] != ref.sum.counts[i] {
				t.Fatalf("trial %d: summary block %d: fused %d, reference %d", trial, i, fused.sum.counts[i], ref.sum.counts[i])
			}
		}
		assertSummaryExact(t, fused, "fused tree")
		compareTrees(t, ref, fused)
		want, got := collectLeaves(ref), collectLeaves(fused)
		for k, w := range want {
			if math.Float64bits(w) != math.Float64bits(got[k]) {
				t.Fatalf("trial %d: voxel %v: fused %v, reference %v", trial, k, got[k], w)
			}
		}
		if fused.Digest() != ref.Digest() {
			t.Fatalf("trial %d: Digest: fused %016x, reference %016x", trial, fused.Digest(), ref.Digest())
		}
		p := DefaultParams()
		var atMin, atMax bool
		for _, lo := range want {
			atMin = atMin || lo == p.ClampMin
			atMax = atMax || lo == p.ClampMax
		}
		if !atMin || !atMax {
			t.Fatalf("trial %d: scans never reached both clamps (min %v, max %v)", trial, atMin, atMax)
		}
	}
}

// TestCarveRetiresCachedClassifications pins the once-per-ray mutation
// count of the fused carve: a ray whose endpoint lies outside the volume
// changes the map through its carve alone — no expansion when the path is
// already expanded, no endpoint update — and must still retire every cached
// classification, or the planners are served the map as it was.
func TestCarveRetiresCachedClassifications(t *testing.T) {
	tr := newTestTree()
	origin, out := geom.V(2.25, 10.25, 4.25), geom.V(40.25, 10.25, 4.25) // ends past x = 32
	v := geom.V(10.25, 10.25, 4.25)
	tr.InsertRay(origin, out, false) // expands every node on the path
	tr.MarkOccupied(v)
	tr.EnableClassCache()
	if got := tr.At(v); got != Occupied {
		t.Fatalf("setup: At(v) = %v, want Occupied", got)
	}
	for i := 0; i < 3; i++ {
		tr.InsertRay(origin, out, false)
	}
	p, _ := tr.Prob(v)
	if got := tr.At(v); got != Free || p >= 0.5 {
		t.Fatalf("after carving through v: At = %v (p = %v), want Free", got, p)
	}
}
