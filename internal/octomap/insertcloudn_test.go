package octomap

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mavfi/internal/geom"
	"mavfi/internal/testutil"
)

// assertTwinsEqual requires two trees fed the same evidence by different
// paths to agree on everything a reader can observe: the leaf-update total,
// the digest (geometry, every brick's log-odds, the summary totals), the
// summary layer words and the codes byte for byte.
func assertTwinsEqual(t *testing.T, got, want *Tree, when string) {
	t.Helper()
	if g, w := got.LeafUpdates(), want.LeafUpdates(); g != w {
		t.Fatalf("%s: LeafUpdates %d, want %d", when, g, w)
	}
	if !slices.Equal(got.sum.layers, want.sum.layers) || got.sum.above != want.sum.above {
		t.Fatalf("%s: summary words diverge", when)
	}
	if !bytes.Equal(got.codes, want.codes) {
		t.Fatalf("%s: codes diverge", when)
	}
	if g, w := got.Digest(), want.Digest(); g != w {
		t.Fatalf("%s: digest %016x, want %016x", when, g, w)
	}
}

// TestInsertCloudNMatchesRepeatedInsertCloud is the equivalence gate for the
// folded walk: InsertCloudN(origin, pts, n) must leave a tree exactly as n
// consecutive InsertCloud calls leave its twin, for n = 0, 1, 2 and 5,
// after every scan of the randomized schedule the fused-carve oracle test
// uses (corrupted endpoints, slab-clipped and missing rays, degenerate-axis
// overshoot rays whose keys are masked, repeated rays that drive voxels to
// both clamps). It runs on a 16 m cube and on a corridor over the
// dense-index cap, whose bricks are keyed through the map and which has no
// summary. Each trial ends with a voxel-by-voxel comparison and brute-force
// checks of the codes (and, where there is one, the summary). A fold that
// skips reclassify, drops the endpoint updates or leaves the passes
// uncounted fails it.
func TestInsertCloudNMatchesRepeatedInsertCloud(t *testing.T) {
	worlds := []struct {
		name   string
		bounds geom.AABB
		trials int
	}{
		{"16 m cube", geom.Box(geom.V(0, 0, 0), geom.V(16, 16, 16)), 3},
		{"corridor over the dense-index cap", geom.Box(geom.V(0, 0, 0), geom.V(600, 40, 20)), 1},
	}
	rng := rand.New(rand.NewSource(15))
	for _, w := range worlds {
		for _, n := range []int{0, 1, 2, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", w.name, n), func(t *testing.T) {
				for trial := 0; trial < w.trials; trial++ {
					got := New(w.bounds, 0.5, DefaultParams())
					want := New(w.bounds, 0.5, DefaultParams())
					for i, sc := range referenceScans(rng, w.bounds.Size()) {
						got.InsertCloudN(sc.origin, sc.pts, n)
						for rep := 0; rep < n; rep++ {
							want.InsertCloud(sc.origin, sc.pts)
						}
						assertTwinsEqual(t, got, want, fmt.Sprintf("trial %d scan %d", trial, i))
					}
					compareTrees(t, got, want)
					assertCodesExact(t, got, fmt.Sprintf("trial %d", trial))
					if got.sum.layers != nil {
						assertSummaryExact(t, got, fmt.Sprintf("trial %d", trial))
					}
					if n == 0 && got.LeafUpdates() != 0 {
						t.Fatalf("trial %d: n=0 applied %d updates", trial, got.LeafUpdates())
					}
				}
			})
		}
	}
}

// TestInsertCloudNSteadyStateAllocFree pins that the fold's buffers are
// reused: a second InsertCloudN of a scan over space the tree has already
// observed allocates nothing.
func TestInsertCloudNSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	tr := New(bounds, 0.5, DefaultParams())
	rng := rand.New(rand.NewSource(5))
	origin := geom.V(16, 16, 8)
	pts := randomScan(rng, origin, 300)
	tr.InsertCloudN(origin, pts, 5) // warm: allocate bricks, grow the fold's buffers
	if allocs := testing.AllocsPerRun(20, func() {
		tr.InsertCloudN(origin, pts, 5)
	}); allocs != 0 {
		t.Fatalf("steady-state InsertCloudN allocates %v objects per call, want 0", allocs)
	}
}

// throughHitScan returns a scan whose rays share four directions from
// origin at random ranges, a third of them misses, so longer rays carve
// through the endpoint voxels of shorter ones, before and after the
// shorter ray lands: hit voxels whose update sequence mixes hits and misses
// in every order.
func throughHitScan(rng *rand.Rand, origin geom.Vec3, n int) []RayPoint {
	var dirs [4]geom.Vec3
	for i := range dirs {
		dirs[i] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
	}
	pts := make([]RayPoint, n)
	for i := range pts {
		pts[i] = RayPoint{
			End: origin.Add(dirs[rng.Intn(len(dirs))].Scale(0.3 + rng.Float64()*12)),
			Hit: rng.Intn(3) != 0,
		}
	}
	return pts
}

// hitStats describes how a scan's updates meet its hit voxels, the voxels
// an in-volume hit endpoint lands in.
type hitStats struct {
	held      int // updates that land in hit voxels: what InsertCloudN holds back
	crossings int // carve crossings among them
	masked    int // crossings that reach a hit voxel through a masked overshoot key
	offGrid   int // crossings of hit voxels outside the bounds the codes cover
}

// scanHitStats walks pts as InsertCloud would, with the test walker, and
// counts the updates that land in the scan's hit voxels.
func scanHitStats(tr *Tree, origin geom.Vec3, pts []RayPoint) hitStats {
	mask := tr.keyMask
	hits := map[[3]int]bool{}
	for _, p := range pts {
		if x, y, z, ok := tr.key(p.End); ok && p.Hit {
			hits[[3]int{x, y, z}] = true
		}
	}
	var s hitStats
	for _, p := range pts {
		ex, ey, ez, endOK := tr.key(p.End)
		tr.walkRay(origin, p.End, func(x, y, z int, _ bool) {
			if endOK && x == ex && y == ey && z == ez {
				return
			}
			k := [3]int{x & mask, y & mask, z & mask}
			if !hits[k] {
				return
			}
			s.held++
			s.crossings++
			if k != [3]int{x, y, z} {
				s.masked++
			}
			if k[0] >= tr.nx || k[1] >= tr.ny || k[2] >= tr.nz {
				s.offGrid++
			}
		})
		if endOK && hits[[3]int{ex, ey, ez}] {
			s.held++
		}
	}
	return s
}

// TestInsertCloudNFoldsHitVoxelsExactly pins the hit-voxel rule of the
// folded walk on scans built so that other rays of the same scan carve
// through hit voxels: InsertCloudN must match n InsertCloud calls on a twin
// after every scan, hold back exactly the updates that land in the scan's
// hit voxels, and leave no mark set when it returns. The worlds cover the
// three ways a crossing can reach a hit voxel that a mark must still catch:
// a masked overshoot key (the degenerate-axis ray of the 16 m cube lands
// on the voxel another ray of its scan hits), a hit voxel outside the
// bounds the codes cover (the key cube of a 16×12×10 m box reaches past
// them),
// and a volume over the dense-index cap, whose bricks are map-keyed. A fold
// that treats hit voxels like unmarked ones, skips or reorders the held
// updates, keeps marks from an earlier scan or counts an update once fails
// it.
func TestInsertCloudNFoldsHitVoxelsExactly(t *testing.T) {
	overshoot := refScan{geom.V(5.25, 6.0-4e-13, 1.2), []RayPoint{
		{End: geom.V(5.25, 5.75, 15.75), Hit: true},    // voxel (10, 11, 31)
		{End: geom.V(5.25, 6.0+4e-13, 0.1), Hit: true}, // carves (10, 11, -1..-3), masked to z = 31..29
		{End: geom.V(5.25, 5.75, 14.75), Hit: false},
	}}
	worlds := []struct {
		name            string
		bounds          geom.AABB
		extra           []refScan
		masked, offGrid bool // the scans must include such crossings
	}{
		{"16 m cube", geom.Box(geom.V(0, 0, 0), geom.V(16, 16, 16)), []refScan{overshoot}, true, false},
		{"hits outside the class grid", geom.Box(geom.V(0, 0, 0), geom.V(16, 12, 10)), nil, false, true},
		{"corridor over the dense-index cap", geom.Box(geom.V(0, 0, 0), geom.V(600, 40, 20)), nil, false, true},
	}
	rng := rand.New(rand.NewSource(16))
	for _, w := range worlds {
		for _, n := range []int{2, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", w.name, n), func(t *testing.T) {
				got := New(w.bounds, 0.5, DefaultParams())
				want := New(w.bounds, 0.5, DefaultParams())
				size := w.bounds.Size()
				var scans []refScan
				for s := 0; s < 4; s++ {
					origin := geom.V(rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z)
					if size.X > 100 { // keep the corridor's scans near the far x end
						origin.X = size.X - 20 + rng.Float64()*20
					}
					sc := refScan{origin, throughHitScan(rng, origin, 120)}
					// The same origin again with new rays: a voxel hit in the
					// first scan is only crossed in the second.
					scans = append(scans, sc, refScan{origin, throughHitScan(rng, origin, 120)}, sc)
				}
				scans = append(scans, w.extra...)
				scans = append(scans, w.extra...)
				var total hitStats
				for i, sc := range scans {
					st := scanHitStats(got, sc.origin, sc.pts)
					got.InsertCloudN(sc.origin, sc.pts, n)
					for rep := 0; rep < n; rep++ {
						want.InsertCloud(sc.origin, sc.pts)
					}
					when := fmt.Sprintf("scan %d", i)
					assertTwinsEqual(t, got, want, when)
					if len(got.fold.held) != st.held {
						t.Fatalf("%s: held %d updates, want the %d that land in hit voxels", when, len(got.fold.held), st.held)
					}
					if len(got.fold.marks) != 0 || slices.ContainsFunc(got.fold.markOf, func(m int32) bool { return m != 0 }) {
						t.Fatalf("%s: marks left set after InsertCloudN", when)
					}
					total.crossings += st.crossings
					total.masked += st.masked
					total.offGrid += st.offGrid
				}
				if total.crossings == 0 || w.masked && total.masked == 0 || w.offGrid && total.offGrid == 0 {
					t.Fatalf("scans lack the crossings this world must test: %+v", total)
				}
				compareTrees(t, got, want)
				assertCodesExact(t, got, "end")
				if got.sum.layers != nil {
					assertSummaryExact(t, got, "end")
				}
			})
		}
	}
}
