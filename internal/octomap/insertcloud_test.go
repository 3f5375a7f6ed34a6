package octomap

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// voxelKey returns the key of voxel i of the brick in cell.
func voxelKey(t *Tree, cell, i int) [3]int {
	nc := t.nc
	return [3]int{cell%nc*8 + i&7, cell/nc%nc*8 + (i>>3)&7, cell/nc/nc*8 + i>>6}
}

// collectLeaves flattens a tree into the log-odds of every voxel its
// allocated bricks hold, keyed by voxel key.
func collectLeaves(t *Tree) map[[3]int]float64 {
	out := map[[3]int]float64{}
	t.store.each(func(cell int, vals []float64) {
		for i, v := range vals {
			out[voxelKey(t, cell, i)] = v
		}
	})
	return out
}

// randomScan synthesises a depth-scan-like point set: rays fanning out from
// a shared origin, some hitting surfaces and some running to max range, with
// a few degenerate/out-of-volume endpoints thrown in.
func randomScan(rng *rand.Rand, origin geom.Vec3, n int) []RayPoint {
	pts := make([]RayPoint, 0, n)
	for i := 0; i < n; i++ {
		az := rng.Float64() * 2 * math.Pi
		el := (rng.Float64() - 0.5) * math.Pi / 2
		rang := rng.Float64() * 25 // sometimes beyond the volume
		dir := geom.V(math.Cos(el)*math.Cos(az), math.Cos(el)*math.Sin(az), math.Sin(el))
		pts = append(pts, RayPoint{
			End: origin.Add(dir.Scale(rang)),
			Hit: rng.Float64() < 0.7,
		})
	}
	return pts
}

// TestInsertCloudMatchesInsertRayBitExact is the PR2 batching equivalence
// gate: for randomized scans, the batched InsertCloud must leave every voxel
// in the tree with log-odds bit-identical to the per-ray InsertRay reference
// applied in the same point order, and must account the same number of leaf
// updates.
func TestInsertCloudMatchesInsertRayBitExact(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(16, 16, 16))
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ref := New(bounds, 0.5, DefaultParams())
		bat := New(bounds, 0.5, DefaultParams())
		// Several scans from moving origins, as in a mission.
		for scan := 0; scan < 4; scan++ {
			origin := geom.V(rng.Float64()*16, rng.Float64()*16, rng.Float64()*16)
			pts := randomScan(rng, origin, 60)
			for _, p := range pts {
				ref.InsertRay(origin, p.End, p.Hit)
			}
			bat.InsertCloud(origin, pts)
		}
		if ref.LeafUpdates() != bat.LeafUpdates() {
			t.Fatalf("trial %d: leaf updates diverge: InsertRay %d, InsertCloud %d",
				trial, ref.LeafUpdates(), bat.LeafUpdates())
		}
		want, got := collectLeaves(ref), collectLeaves(bat)
		if len(want) != len(got) {
			t.Fatalf("trial %d: voxel coverage diverges: %d vs %d leaves", trial, len(want), len(got))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Fatalf("trial %d: voxel %v missing from batched tree", trial, k)
			}
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("trial %d: voxel %v log-odds not bit-identical: ref %v (0x%x), batch %v (0x%x)",
					trial, k, w, math.Float64bits(w), g, math.Float64bits(g))
			}
		}
	}
}

// TestInsertCloudRepeatedEvidenceClamps checks the per-voxel delta sequences
// survive batching under clamping: hammering the same endpoint voxel from
// the same origin must clamp identically on both paths.
func TestInsertCloudRepeatedEvidenceClamps(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(8, 8, 8))
	origin := geom.V(0.25, 0.25, 0.25)
	end := geom.V(6.25, 0.25, 0.25)
	pts := make([]RayPoint, 0, 40)
	for i := 0; i < 40; i++ {
		pts = append(pts, RayPoint{End: end, Hit: i%3 != 0})
	}
	ref := New(bounds, 0.5, DefaultParams())
	bat := New(bounds, 0.5, DefaultParams())
	for _, p := range pts {
		ref.InsertRay(origin, p.End, p.Hit)
	}
	bat.InsertCloud(origin, pts)
	for x := 0; x < 16; x++ {
		p := geom.V(float64(x)*0.5+0.25, 0.25, 0.25)
		wp, wk := ref.Prob(p)
		gp, gk := bat.Prob(p)
		if wk != gk || math.Float64bits(wp) != math.Float64bits(gp) {
			t.Fatalf("voxel x=%d diverges: ref (%v,%v) batch (%v,%v)", x, wp, wk, gp, gk)
		}
	}
}

// TestInsertCloudCorruptedEndpointBoundedAndBitExact pins the
// fault-injection case: the octomap kernel is an injection site, so a scan
// can legitimately contain an endpoint coordinate corrupted to a huge
// magnitude. The ray walker clips every ray to the root volume, so the
// corrupted ray integrates only its in-volume prefix and the result still
// matches the per-ray reference bit-for-bit.
func TestInsertCloudCorruptedEndpointBoundedAndBitExact(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(100, 100, 30))
	rng := rand.New(rand.NewSource(19))
	origin := geom.V(50, 50, 3)
	pts := randomScan(rng, origin, 120)
	pts[13].End = geom.V(7.3e301, pts[13].End.Y, pts[13].End.Z) // exponent-bit flip
	pts[77].End = geom.V(pts[77].End.X, -4.1e88, pts[77].End.Z)

	ref := New(bounds, 0.5, DefaultParams())
	bat := New(bounds, 0.5, DefaultParams())
	for _, p := range pts {
		ref.InsertRay(origin, p.End, p.Hit)
	}
	bat.InsertCloud(origin, pts)
	if ref.LeafUpdates() != bat.LeafUpdates() {
		t.Fatalf("leaf updates diverge: %d vs %d", ref.LeafUpdates(), bat.LeafUpdates())
	}
	compareTrees(t, ref, bat)
}

// compareTrees asserts two trees hold bricks in the same cells with
// bit-identical log-odds in every voxel.
func compareTrees(t *testing.T, a, b *Tree) {
	t.Helper()
	type brick struct {
		cell int
		vals []float64
	}
	bricks := func(tr *Tree) (out []brick) {
		tr.store.each(func(cell int, vals []float64) { out = append(out, brick{cell, vals}) })
		return out
	}
	ab, bb := bricks(a), bricks(b)
	if len(ab) != len(bb) {
		t.Fatalf("brick counts diverge: %d vs %d", len(ab), len(bb))
	}
	for i := range ab {
		if ab[i].cell != bb[i].cell {
			t.Fatalf("brick %d: cell %d vs %d", i, ab[i].cell, bb[i].cell)
		}
		for j := range ab[i].vals {
			if av, bv := ab[i].vals[j], bb[i].vals[j]; math.Float64bits(av) != math.Float64bits(bv) {
				t.Fatalf("voxel %v log-odds not bit-identical: %v vs %v", voxelKey(a, ab[i].cell, j), av, bv)
			}
		}
	}
}

// TestInsertCloudEmptyAndOutOfVolume exercises the degenerate inputs.
func TestInsertCloudEmptyAndOutOfVolume(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(8, 8, 8))
	tr := New(bounds, 0.5, DefaultParams())
	tr.InsertCloud(geom.V(1, 1, 1), nil)
	if tr.LeafUpdates() != 0 {
		t.Fatalf("empty cloud applied %d updates", tr.LeafUpdates())
	}
	// A scan whose rays all start and end outside the volume must be a
	// no-op, same as InsertRay.
	tr.InsertCloud(geom.V(-20, -20, -20), []RayPoint{{End: geom.V(-30, -30, -30), Hit: true}})
	if tr.LeafUpdates() != 0 {
		t.Fatalf("out-of-volume cloud applied %d updates", tr.LeafUpdates())
	}
}
