package octomap

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
	"mavfi/internal/testutil"
)

// assertSameQueries requires got to answer every query exactly as want
// does — At, Prob (bit for bit), PointFree, SegmentFree and FirstBlocked
// under both navigation policies — over random points and segments in and
// around bounds, and to digest identically.
func assertSameQueries(t *testing.T, got, want *Tree, bounds geom.AABB, seed int64, when string) {
	t.Helper()
	if got.Digest() != want.Digest() {
		t.Fatalf("%s: Digest %016x, want %016x", when, got.Digest(), want.Digest())
	}
	if got.LeafUpdates() != want.LeafUpdates() || got.NumLeaves() != want.NumLeaves() {
		t.Fatalf("%s: %d updates / %d leaves, want %d / %d", when,
			got.LeafUpdates(), got.NumLeaves(), want.LeafUpdates(), want.NumLeaves())
	}
	rng := rand.New(rand.NewSource(seed))
	size := bounds.Size()
	point := func() geom.Vec3 {
		// 10% margin on each side, so some probes leave the volume.
		return geom.V(
			bounds.Min.X+(rng.Float64()*1.2-0.1)*size.X,
			bounds.Min.Y+(rng.Float64()*1.2-0.1)*size.Y,
			bounds.Min.Z+(rng.Float64()*1.2-0.1)*size.Z)
	}
	policies := []QueryPolicy{{UnknownIsFree: true, Radius: 0.55}, {UnknownIsFree: false, Radius: 0.55}}
	for i := 0; i < 400; i++ {
		p, q := point(), point()
		if g, w := got.At(p), want.At(p); g != w {
			t.Fatalf("%s: At(%v) = %v, want %v", when, p, g, w)
		}
		gp, gk := got.Prob(p)
		wp, wk := want.Prob(p)
		if gk != wk || math.Float64bits(gp) != math.Float64bits(wp) {
			t.Fatalf("%s: Prob(%v) = (%v, %v), want (%v, %v)", when, p, gp, gk, wp, wk)
		}
		for _, pol := range policies {
			if g, w := got.PointFree(p, pol), want.PointFree(p, pol); g != w {
				t.Fatalf("%s: PointFree(%v, %+v) = %v, want %v", when, p, pol, g, w)
			}
			if g, w := got.SegmentFree(p, q, pol), want.SegmentFree(p, q, pol); g != w {
				t.Fatalf("%s: SegmentFree(%v, %v, %+v) = %v, want %v", when, p, q, pol, g, w)
			}
			gf, gb := got.FirstBlocked(p, q, pol)
			wf, wb := want.FirstBlocked(p, q, pol)
			if gb != wb || math.Float64bits(gf) != math.Float64bits(wf) {
				t.Fatalf("%s: FirstBlocked(%v, %v, %+v) = (%v, %v), want (%v, %v)", when, p, q, pol, gf, gb, wf, wb)
			}
		}
	}
}

// mapWorld feeds a tree mission-like scans over bounds and queries it in
// between, so it ends with grown arenas, warm path and query caches, an
// armed classification cache and a non-zero mutation count.
func mapWorld(tr *Tree, bounds geom.AABB, seed int64) {
	tr.EnableClassCache()
	rng := rand.New(rand.NewSource(seed))
	size := bounds.Size()
	for s := 0; s < 4; s++ {
		origin := bounds.Min.Add(geom.V(rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z))
		tr.InsertCloud(origin, randomScan(rng, origin, 80))
		for i := 0; i < 20; i++ {
			a := bounds.Min.Add(geom.V(rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z))
			tr.SegmentFree(a, origin, QueryPolicy{UnknownIsFree: true, Radius: 0.55})
		}
	}
}

// TestResetMatchesNew pins the Reset ≡ New contract the pipeline's tree
// free list rests on. A tree that mapped one world and is Reset to a
// world with different extents must digest like a New tree straight away
// and, fed the same scans afterwards, keep matching it on Digest and on every
// query. The same must hold for a tree recycled into the same extents mid
// class-cache epoch, where a stale classification would otherwise survive.
func TestResetMatchesNew(t *testing.T) {
	worldA := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	worldB := geom.Box(geom.V(-6, 2, 0.5), geom.V(18, 30, 12.5)) // other origin, extents and root cube
	cases := []struct {
		name     string
		from, to geom.AABB
	}{
		{"larger to smaller world", worldA, worldB},
		{"smaller to larger world", worldB, worldA},
		{"same world", worldA, worldA},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recycled := New(c.from, 0.5, DefaultParams())
			mapWorld(recycled, c.from, int64(10+ci))
			recycled.Reset(c.to, 0.5, DefaultParams())
			recycled.EnableClassCache() // as the planner would re-arm it
			fresh := New(c.to, 0.5, DefaultParams())
			assertSameQueries(t, recycled, fresh, c.to, 1, "right after Reset")

			rng := rand.New(rand.NewSource(int64(20 + ci)))
			size := c.to.Size()
			for s := 0; s < 4; s++ {
				origin := c.to.Min.Add(geom.V(rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z))
				pts := randomScan(rng, origin, 80)
				recycled.InsertCloud(origin, pts)
				fresh.InsertCloud(origin, pts)
				assertSameQueries(t, recycled, fresh, c.to, int64(s), "after a scan")
			}
			assertSummaryExact(t, recycled, "recycled tree")
		})
	}

	t.Run("mid class-cache epoch", func(t *testing.T) {
		// Recycled tree: voxel v is Free, and its cache entry is rewound to
		// epoch 1 while the cache sits at the last epoch before the 6-bit
		// wrap — the TestForkMidEpochWrapRegression set-up. Reset must clear
		// the grid as it wraps, or the stale Free is served for a voxel the
		// fresh map has never observed.
		v := geom.V(10.25, 10.25, 4.25)
		recycled := New(worldA, 0.5, DefaultParams())
		recycled.InsertRay(geom.V(2.25, 10.25, 4.25), geom.V(20.25, 10.25, 4.25), false)
		recycled.EnableClassCache()
		if recycled.At(v) != Free {
			t.Fatal("setup: voxel not Free on the old map")
		}
		x, y, z, _ := recycled.key(v)
		c := &recycled.cls
		c.grid[(z*c.ny+y)*c.nx+x] = 1<<2 | uint8(Free)
		c.epoch = 63
		c.mut = recycled.mut

		recycled.Reset(worldA, 0.5, DefaultParams())
		if got := recycled.At(v); got != Unknown {
			t.Fatalf("Reset served a stale pre-wrap cache entry: At = %v, want Unknown", got)
		}
		fresh := New(worldA, 0.5, DefaultParams())
		assertSameQueries(t, recycled, fresh, worldA, 2, "after a mid-epoch Reset")
		for i := 0; i < 4; i++ {
			recycled.MarkOccupied(v)
			fresh.MarkOccupied(v)
		}
		assertSameQueries(t, recycled, fresh, worldA, 3, "after marking the voxel occupied")
	})
}

// TestResetKeepsAllocations pins what recycling is for: resetting a grown
// tree to a world of the same extents reuses its arena, summary slab and
// classification grid instead of allocating new ones.
func TestResetKeepsAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	tr := New(bounds, 0.5, DefaultParams())
	mapWorld(tr, bounds, 5)
	arena, grid := &tr.nodes[:1][0], &tr.cls.grid[0]
	if allocs := testing.AllocsPerRun(10, func() {
		tr.Reset(bounds, 0.5, DefaultParams())
	}); allocs != 0 {
		t.Fatalf("Reset allocates %v objects, want 0", allocs)
	}
	if &tr.nodes[:1][0] != arena || &tr.cls.grid[0] != grid {
		t.Fatal("Reset replaced the arena or the classification grid")
	}
}
