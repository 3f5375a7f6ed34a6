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
// the digest (geometry, every brick's log-odds, the summary counts), the
// summary counts and the classification grid byte for byte.
func assertTwinsEqual(t *testing.T, got, want *Tree, when string) {
	t.Helper()
	if g, w := got.LeafUpdates(), want.LeafUpdates(); g != w {
		t.Fatalf("%s: LeafUpdates %d, want %d", when, g, w)
	}
	if !slices.Equal(got.sum.counts, want.sum.counts) {
		t.Fatalf("%s: summary counts diverge", when)
	}
	if !bytes.Equal(got.grid, want.grid) {
		t.Fatalf("%s: classification grids diverge", when)
	}
	if g, w := got.Digest(), want.Digest(); g != w {
		t.Fatalf("%s: digest %016x, want %016x", when, g, w)
	}
}

// TestInsertCloudNMatchesRepeatedInsertCloud is the equivalence gate for the
// recorded walk and its replay: InsertCloudN(origin, pts, n) must leave a
// tree exactly as n consecutive InsertCloud calls leave its twin, for n = 0,
// 1, 2 and 5, after every scan of the randomized schedule the fused-carve
// oracle test uses (corrupted endpoints, slab-clipped and missing rays,
// degenerate-axis overshoot rays whose keys are masked, repeated rays that
// drive voxels to both clamps). It runs on a 16 m cube and on a corridor
// over the dense-index cap, whose bricks are keyed through the map and
// which has no summary. Each trial ends with a voxel-by-voxel comparison
// and brute-force checks of the grid (and, where there is one, the
// summary). A replay that skips reclassify, drops the endpoint updates,
// runs out of order or leaves the passes uncounted fails it.
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
					assertGridExact(t, got, fmt.Sprintf("trial %d", trial))
					if got.sum.counts != nil {
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

// TestInsertCloudNLeavesLaterInsertsUnrecorded pins that the record is
// armed only inside InsertCloudN: insertions after it, through InsertCloud,
// InsertCloudApprox or InsertRay, must not grow the record.
func TestInsertCloudNLeavesLaterInsertsUnrecorded(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(16, 16, 16))
	tr := New(bounds, 0.5, DefaultParams())
	rng := rand.New(rand.NewSource(4))
	origin := geom.V(8, 8, 8)
	tr.InsertCloudN(origin, randomScan(rng, origin, 40), 3)
	if tr.rec != nil {
		t.Fatal("record still armed after InsertCloudN")
	}
	n := len(tr.recBuf)
	if n == 0 {
		t.Fatal("InsertCloudN recorded no updates")
	}
	tr.InsertCloud(origin, randomScan(rng, origin, 40))
	tr.InsertCloudApprox(origin, randomScan(rng, origin, 40), 2, 2, true)
	tr.InsertRay(origin, geom.V(1, 1, 1), true)
	if len(tr.recBuf) != n {
		t.Fatalf("unrecorded insertions grew the record from %d to %d entries", n, len(tr.recBuf))
	}
}

// TestInsertCloudNSteadyStateAllocFree pins that the record is reused: a
// second InsertCloudN of a scan over space the tree has already observed
// allocates nothing.
func TestInsertCloudNSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	tr := New(bounds, 0.5, DefaultParams())
	rng := rand.New(rand.NewSource(5))
	origin := geom.V(16, 16, 8)
	pts := randomScan(rng, origin, 300)
	tr.InsertCloudN(origin, pts, 5) // warm: allocate bricks, grow the record
	if allocs := testing.AllocsPerRun(20, func() {
		tr.InsertCloudN(origin, pts, 5)
	}); allocs != 0 {
		t.Fatalf("steady-state InsertCloudN allocates %v objects per call, want 0", allocs)
	}
}
