package octomap

import (
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// recountSummary rebuilds the occupancy summary by brute force: classify
// every leaf key in the root cube and count the Occupied ones per block and
// local z-layer, inside the prefix of cells the words cover, and in all
// past it, and the total of every cell. This is the oracle the
// incrementally maintained summary must match after any interleaving of
// mutations.
func recountSummary(tr *Tree) (occSummary, []uint16) {
	want := occSummary{layers: make([]uint64, summaryCells(tr.nc, tr.nz))}
	totals := make([]uint16, denseCells(tr.nc))
	for z := 0; z < tr.maxKey; z++ {
		for y := 0; y < tr.maxKey; y++ {
			for x := 0; x < tr.maxKey; x++ {
				if tr.classifySlow(x, y, z) == Occupied {
					want.count(tr.cell(x, y, z), z, true)
					totals[tr.cell(x, y, z)]++
				}
			}
		}
	}
	return want, totals
}

// assertSummaryExact requires the summary to cover the prefix of cells
// summaryCells names, every layer byte of every word and the count past
// the prefix to equal the recount's, and the per-cell totals Digest hashes
// to be the recount's too.
func assertSummaryExact(t *testing.T, tr *Tree, when string) {
	t.Helper()
	want, totals := recountSummary(tr)
	if len(tr.sum.layers) != len(want.layers) {
		t.Fatalf("%s: summary covers %d cells, want %d", when, len(tr.sum.layers), len(want.layers))
	}
	if tr.sum.above != want.above {
		t.Fatalf("%s: %d Occupied voxels counted past the prefix, recount says %d", when, tr.sum.above, want.above)
	}
	for i, w := range want.layers {
		got := tr.sum.layers[i]
		for k := range 8 {
			if g, w := uint8(got>>(8*k)), uint8(w>>(8*k)); g != w {
				t.Fatalf("%s: summary block %d layer %d counts %d, recount says %d", when, i, k, g, w)
			}
		}
	}
	c := 0
	tr.sum.eachTotal(tr.nc, &tr.store, tr.params, func(n uint16) {
		if n != totals[c] {
			t.Fatalf("%s: block %d totals %d for Digest, recount says %d", when, c, n, totals[c])
		}
		c++
	})
	if c != len(totals) {
		t.Fatalf("%s: Digest hashes %d block totals, want %d", when, c, len(totals))
	}
}

// codeAt returns the code of the voxel at in-bounds key (x, y, z): its
// miss-chain step or its brick code.
func codeAt(tr *Tree, x, y, z int) uint8 { return tr.codes[(z*tr.ny+y)*tr.nx+x] }

// classAt returns the class the code of in-bounds key (x, y, z) decodes to.
func classAt(tr *Tree, x, y, z int) Occupancy { return Occupancy(codeClass[codeAt(tr, x, y, z)]) }

// assertCodesExact requires the code of every voxel of the bounds to decode
// to the classification of the voxel's value, read from its home, by brute
// force over the bounds, and every brick code to name a voxel whose value
// is in its brick.
func assertCodesExact(t *testing.T, tr *Tree, when string) {
	t.Helper()
	if len(tr.codes) != tr.nx*tr.ny*tr.nz {
		t.Fatalf("%s: %d codes for %dx%dx%d extents", when, len(tr.codes), tr.nx, tr.ny, tr.nz)
	}
	for z := 0; z < tr.nz; z++ {
		for y := 0; y < tr.ny; y++ {
			for x := 0; x < tr.nx; x++ {
				if got, want := classAt(tr, x, y, z), tr.classifySlow(x, y, z); got != want {
					t.Fatalf("%s: code %d of (%d,%d,%d) decodes to %v, its value says %v", when, codeAt(tr, x, y, z), x, y, z, got, want)
				}
				if codeAt(tr, x, y, z) >= brickUnknown && tr.store.slot(tr.cell(x, y, z)) == 0 {
					t.Fatalf("%s: (%d,%d,%d) has a brick code and no brick", when, x, y, z)
				}
			}
		}
	}
}

// groundScan returns rays from above that hit the floor of bounds across
// its whole extent, the way a depth camera maps the ground: after it the
// voxels at key z = 0 are Occupied in every block of the bottom block layer.
func groundScan(bounds geom.AABB) (geom.Vec3, []RayPoint) {
	origin := geom.V((bounds.Min.X+bounds.Max.X)/2, (bounds.Min.Y+bounds.Max.Y)/2, bounds.Min.Z+6)
	var pts []RayPoint
	for x := bounds.Min.X + 0.25; x < bounds.Max.X; x += 0.5 {
		for y := bounds.Min.Y + 0.25; y < bounds.Max.Y; y += 0.5 {
			pts = append(pts, RayPoint{End: geom.V(x, y, bounds.Min.Z+0.2), Hit: true})
		}
	}
	return origin, pts
}

// TestOccSummaryMatchesRecount pins the incremental summary maintenance,
// layer byte by layer byte, against the brute-force recount oracle across
// interleaved scan insertion, InsertCloudN folds, direct occupied/free
// marking (including occupied→free→occupied flips of the same voxel),
// collision queries between mutations, forks of a snapshot mutated apart
// from their source, a tree recycled through ForkInto and Reset,
// walker-overshoot insertions whose evidence lands on the masked key, and a
// hit and misses above the bounds, past the cells the words cover.
func TestOccSummaryMatchesRecount(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	tr := New(bounds, 0.5, DefaultParams())
	if tr.sum.layers == nil {
		t.Fatal("test tree unexpectedly over the summary cap")
	}
	assertSummaryExact(t, tr, "fresh tree")
	tr.InsertCloud(groundScan(bounds))
	assertSummaryExact(t, tr, "ground")
	rng := rand.New(rand.NewSource(8))
	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	recycled := New(bounds, 0.5, DefaultParams())
	for round := 0; round < 6; round++ {
		origin := randomInteriorPoint(rng)
		if round%2 == 0 {
			tr.InsertCloud(origin, randomScan(rng, origin, 60))
		} else {
			tr.InsertCloudN(origin, randomScan(rng, origin, 60), 2+round%3)
		}
		// Flip a handful of voxels across the occupancy threshold both ways.
		for i := 0; i < 10; i++ {
			p := randomInteriorPoint(rng)
			for j := 0; j < 1+rng.Intn(4); j++ {
				tr.MarkOccupied(p)
			}
			for j := 0; j < rng.Intn(6); j++ {
				tr.MarkFree(p)
			}
		}
		// Queries between mutations must see exact summary state (and must
		// not disturb it).
		for i := 0; i < 25; i++ {
			a, b := randomInteriorPoint(rng), randomInteriorPoint(rng)
			tr.SegmentFree(a, b, q)
			tr.FirstBlocked(a, b, q)
		}
		assertSummaryExact(t, tr, "round")

		// A fork and a recycled tree start from the same words and stay
		// exact as they are mutated apart from the source.
		snap := tr.Snapshot()
		fork := snap.Fork()
		snap.ForkInto(recycled)
		for _, c := range []*Tree{fork, recycled} {
			o := randomInteriorPoint(rng)
			c.InsertCloudN(o, randomScan(rng, o, 40), 1+rng.Intn(3))
			c.MarkOccupied(randomInteriorPoint(rng))
			assertSummaryExact(t, c, "fork")
		}
		assertSummaryExact(t, tr, "source after its forks were mutated")
	}

	// Reset clears every word, and a recycled tree maps afresh.
	recycled.Reset(bounds, 0.5, DefaultParams())
	assertSummaryExact(t, recycled, "reset")
	o, ground := groundScan(bounds)
	recycled.InsertCloudN(o, ground, 2)
	assertSummaryExact(t, recycled, "reset then ground")

	// Degenerate-axis insertions: the ray walker's defensive overshoot can
	// hand the carve keys outside [0, maxKey), whose evidence aliases onto
	// the masked key (see Tree). The summary must follow the evidence.
	tr.InsertRay(geom.V(5.25, 6.0-4e-13, 1.2), geom.V(5.25, 6.0+4e-13, 0.1), true)
	tr.InsertRay(geom.V(0.25, 6.0-4e-13, 15.8), geom.V(0.25, 6.0+4e-13, 15.95), true)
	assertSummaryExact(t, tr, "degenerate-axis insertions")

	// A hit above the bounds, in the key cube's upper half, lands in the
	// count past the words, and a miss there takes it out again.
	above := tr.sum.above
	top := geom.V(10.25, 10.25, 24.25)
	tr.InsertRay(geom.V(10.25, 10.25, 8), top, true)
	if tr.sum.above != above+1 {
		t.Fatalf("a hit above the bounds moved the count past the prefix from %d to %d", above, tr.sum.above)
	}
	assertSummaryExact(t, tr, "hit above the bounds")
	for tr.At(top) == Occupied {
		tr.MarkFree(top)
	}
	assertSummaryExact(t, tr, "miss above the bounds")
}

// TestLayerWordArithmetic pins the word helpers on every layer range and on
// random words whose bytes stay at or under 64: occTotal is the bytes' sum
// and layerMask selects exactly the bytes lo..hi.
func TestLayerWordArithmetic(t *testing.T) {
	for lo := range 8 {
		for hi := lo; hi < 8; hi++ {
			m := layerMask(lo, hi)
			for k := range 8 {
				if got, want := uint8(m>>(8*k)), k >= lo && k <= hi; (got == 0xff) != want || (got != 0 && got != 0xff) {
					t.Fatalf("layerMask(%d, %d) = %016x: byte %d is %02x", lo, hi, m, k, got)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	for range 10000 {
		var w uint64
		sum := 0
		for k := range 8 {
			b := rng.Intn(65)
			if rng.Intn(3) == 0 {
				b = 64
			}
			w |= uint64(b) << (8 * k)
			sum += b
		}
		if got := occTotal(w); int(got) != sum {
			t.Fatalf("occTotal(%016x) = %d, want %d", w, got, sum)
		}
	}
}

// TestSummaryQueriesAcrossEpochWrap interleaves 70 mutation/query rounds
// (enough to have wrapped the 6-bit epoch of the class cache the exact codes
// replaced) while the summary serves the same queries, checking fused
// queries against the sequential reference the whole way: the summary and
// the codes must stay exact through every round.
func TestSummaryQueriesAcrossEpochWrap(t *testing.T) {
	tr := queryTestTree(71)
	rng := rand.New(rand.NewSource(72))
	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	for round := 0; round < 70; round++ {
		p := randomInteriorPoint(rng)
		if round%2 == 0 {
			tr.MarkOccupied(p)
		} else {
			tr.MarkFree(p)
		}
		for i := 0; i < 6; i++ {
			a, b := randomInteriorPoint(rng), randomInteriorPoint(rng)
			if got, want := tr.SegmentFree(a, b, q), segmentFreeSeq(tr, a, b, q); got != want {
				t.Fatalf("round %d: SegmentFree fused=%v sequential=%v", round, got, want)
			}
		}
	}
	assertSummaryExact(t, tr, "after 70 rounds")
	assertCodesExact(t, tr, "after 70 rounds")
}

// TestSummaryCapDisables pins the footprint-cap degradation: a volume whose
// cell count exceeds maxDenseCells runs with the summary disabled (nil
// words), its bricks keyed through the map and no codes, and
// queries still answer exactly like the sequential reference.
func TestSummaryCapDisables(t *testing.T) {
	// 2050 m at 0.125 m resolution → rootSize 4096 m, maxKey 2^15, nc 2^12:
	// 2^36 cells, far over the cap, so the bricks are keyed through the map.
	big := New(geom.Box(geom.V(0, 0, 0), geom.V(2050, 2050, 2050)), 0.125, DefaultParams())
	if big.sum.layers != nil || big.store.index != nil || big.codes != nil {
		t.Fatalf("dense structures armed over the cap: nc=%d", big.nc)
	}
	big.MarkOccupied(geom.V(100.06, 100.06, 100.06))
	q := QueryPolicy{UnknownIsFree: true, Radius: 0.3}
	a, b := geom.V(98, 100.06, 100.06), geom.V(103, 100.06, 100.06)
	if big.SegmentFree(a, b, q) {
		t.Fatal("segment through the occupied voxel reported free")
	}
	if got, want := big.SegmentFree(a, b, q), segmentFreeSeq(big, a, b, q); got != want {
		t.Fatalf("uncapped-summary query: fused=%v sequential=%v", got, want)
	}
}
