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
// between, so it ends with a grown brick slab and a populated summary and
// classification grid.
func mapWorld(tr *Tree, bounds geom.AABB, seed int64) {
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
// query. The same must hold for a tree recycled into the same extents with
// a stale byte planted in its classification grid.
func TestResetMatchesNew(t *testing.T) {
	worldA := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	worldB := geom.Box(geom.V(-6, 2, 0.5), geom.V(18, 30, 12.5)) // other origin, extents and root cube
	corridor := geom.Box(geom.V(0, 0, 0), geom.V(600, 40, 20))   // bricks keyed through the map
	cases := []struct {
		name     string
		from, to geom.AABB
	}{
		{"larger to smaller world", worldA, worldB},
		{"smaller to larger world", worldB, worldA},
		{"same world", worldA, worldA},
		{"map-indexed world to itself", corridor, corridor},
		{"map-indexed to dense world", corridor, worldA},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recycled := New(c.from, 0.5, DefaultParams())
			mapWorld(recycled, c.from, int64(10+ci))
			recycled.Reset(c.to, 0.5, DefaultParams())
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
			if recycled.sum.layers != nil { // none over the dense-cell cap
				assertSummaryExact(t, recycled, "recycled tree")
			}
		})
	}

	// The subtest keeps the name of the class-cache epoch case it succeeds.
	t.Run("mid class-cache epoch", func(t *testing.T) {
		// Recycled tree: voxel v is Free on the old map, and a second voxel u
		// the old map never saw gets a stale Occupied byte planted in the
		// grid. Reset must clear the grid, or a classification of a map that
		// no longer exists is served for voxels the fresh map has never
		// observed.
		v, u := geom.V(10.25, 10.25, 4.25), geom.V(20.75, 3.25, 9.75)
		recycled := New(worldA, 0.5, DefaultParams())
		recycled.InsertRay(geom.V(2.25, 10.25, 4.25), geom.V(20.25, 10.25, 4.25), false)
		if recycled.At(v) != Free || recycled.At(u) != Unknown {
			t.Fatal("setup: voxel v not Free or u not Unknown on the old map")
		}
		x, y, z, _ := recycled.key(u)
		recycled.grid[(z*recycled.ny+y)*recycled.nx+x] = uint8(Occupied)

		recycled.Reset(worldA, 0.5, DefaultParams())
		if got, gotU := recycled.At(v), recycled.At(u); got != Unknown || gotU != Unknown {
			t.Fatalf("Reset served a stale grid byte: At(v) = %v, At(u) = %v, want Unknown", got, gotU)
		}
		fresh := New(worldA, 0.5, DefaultParams())
		assertSameQueries(t, recycled, fresh, worldA, 2, "after a Reset over a stale grid")
		for i := 0; i < 4; i++ {
			recycled.MarkOccupied(v)
			fresh.MarkOccupied(v)
		}
		assertSameQueries(t, recycled, fresh, worldA, 3, "after marking the voxel occupied")
	})
}

// TestNewRejectsHugeVolume pins the key-cube limit: a volume needing more
// than 2^24 leaves per axis would overflow the flat cell numbers, so New
// refuses it loudly instead of aliasing distant bricks onto each other.
func TestNewRejectsHugeVolume(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a volume of 2^28 leaves per axis")
		}
	}()
	New(geom.Box(geom.V(0, 0, 0), geom.V(1e8, 1, 1)), 0.5, DefaultParams())
}

// TestResetKeepsAllocations pins what recycling is for: resetting a grown
// tree to a world of the same extents, or forking a snapshot of such a world
// into it, reuses its brick slab, brick index, miss-chain codes, summary and
// classification grid instead of allocating new ones.
func TestResetKeepsAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	tr := New(bounds, 0.5, DefaultParams())
	mapWorld(tr, bounds, 5)
	snap := tr.Snapshot()
	slab, index, grid, counts := &tr.store.slab[0], &tr.store.index[0], &tr.grid[0], &tr.sum.layers[0]
	codes := &tr.codes[0]
	for _, step := range []struct {
		name string
		fn   func()
	}{
		{"Reset", func() { tr.Reset(bounds, 0.5, DefaultParams()) }},
		{"ForkInto", func() { snap.ForkInto(tr) }},
	} {
		if allocs := testing.AllocsPerRun(10, step.fn); allocs != 0 {
			t.Fatalf("%s allocates %v objects, want 0", step.name, allocs)
		}
		if &tr.store.slab[:1][0] != slab || &tr.store.index[0] != index || &tr.grid[0] != grid ||
			&tr.sum.layers[0] != counts || &tr.codes[0] != codes {
			t.Fatalf("%s replaced the slab, the brick index, the grid, the summary or the codes", step.name)
		}
	}
}
