package octomap

import (
	"math/rand"
	"testing"

	"mavfi/internal/geom"
	"mavfi/internal/testutil"
)

// TestInsertCloudSteadyStateAllocFree pins the PR2 contract on the mapping
// kernel: once the tree has observed a region (bricks allocated, scan
// scratch sized), re-integrating scans over it must allocate nothing — the
// brick slab only grows when new space is observed, and then amortised
// across thousands of voxels.
func TestInsertCloudSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	tr := New(bounds, 0.5, DefaultParams())
	rng := rand.New(rand.NewSource(3))
	origin := geom.V(16, 16, 8)
	pts := randomScan(rng, origin, 300)
	tr.InsertCloud(origin, pts) // warm: allocate bricks, size scratch
	if allocs := testing.AllocsPerRun(20, func() {
		tr.InsertCloud(origin, pts)
	}); allocs != 0 {
		t.Fatalf("steady-state InsertCloud allocates %v objects per scan, want 0", allocs)
	}
}

// TestCollisionQueriesAllocFree pins the PR3 contract on the query side,
// extended in PR 5 over every fused-walker regime: the DDA segment queries
// and the code decode allocate nothing per probe (the codes are
// allocated with the tree), across the prescan fast
// path, walks the prescan declines, the slab-clipped walk for offset rays
// leaving the volume, zero-radius probes, and the pessimistic policy the
// summary stands aside for.
func TestCollisionQueriesAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	tr := New(bounds, 0.5, DefaultParams())
	rng := rand.New(rand.NewSource(4))
	origin := geom.V(16, 16, 8)
	tr.InsertCloud(origin, randomScan(rng, origin, 300))
	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	qPess := QueryPolicy{UnknownIsFree: false, Radius: 0.55}
	qThin := QueryPolicy{UnknownIsFree: true}
	a, b := geom.V(3, 3, 3), geom.V(29, 28, 9)
	edgeA, edgeB := geom.V(0.3, 5, 0.3), geom.V(2, 9, 0.4) // offset rays exit the volume
	free1, free2 := geom.V(3.2, 24.4, 12.1), geom.V(5.6, 26.0, 12.8)
	if allocs := testing.AllocsPerRun(50, func() {
		tr.SegmentFree(a, b, q)
		tr.FirstBlocked(a, b, q)
		tr.SegmentFree(free1, free2, q) // prescan fast path in unobserved space
		tr.FirstBlocked(free1, free2, q)
		tr.SegmentFree(edgeA, edgeB, q)
		tr.FirstBlocked(edgeA, edgeB, q) // slab-clipped walk
		tr.SegmentFree(a, b, qPess)
		tr.SegmentFree(a, b, qThin)
		tr.PointFree(a, q)
	}); allocs != 0 {
		t.Fatalf("steady-state collision queries allocate %v objects, want 0", allocs)
	}
}
