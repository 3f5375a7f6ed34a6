package octomap

import (
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// recountSummary rebuilds the occupancy summary by brute force: classify
// every leaf key in the root cube and count the Occupied ones per block.
// This is the oracle the incrementally maintained counts must match after
// any interleaving of mutations.
func recountSummary(tr *Tree) []uint16 {
	counts := make([]uint16, len(tr.sum.counts))
	for z := 0; z < tr.maxKey; z++ {
		for y := 0; y < tr.maxKey; y++ {
			for x := 0; x < tr.maxKey; x++ {
				if tr.classifySlow(x, y, z) == Occupied {
					counts[tr.cell(x, y, z)]++
				}
			}
		}
	}
	return counts
}

func assertSummaryExact(t *testing.T, tr *Tree, when string) {
	t.Helper()
	want := recountSummary(tr)
	for i, w := range want {
		if got := tr.sum.counts[i]; got != w {
			t.Fatalf("%s: summary block %d has count %d, recount says %d", when, i, got, w)
		}
	}
}

// assertGridExact requires every byte of the classification grid to equal
// the classification of its voxel's brick value, by brute force over the
// bounds.
func assertGridExact(t *testing.T, tr *Tree, when string) {
	t.Helper()
	if len(tr.grid) != tr.nx*tr.ny*tr.nz {
		t.Fatalf("%s: grid has %d bytes for %dx%dx%d extents", when, len(tr.grid), tr.nx, tr.ny, tr.nz)
	}
	for z := 0; z < tr.nz; z++ {
		for y := 0; y < tr.ny; y++ {
			for x := 0; x < tr.nx; x++ {
				if got, want := Occupancy(tr.grid[(z*tr.ny+y)*tr.nx+x]), tr.classifySlow(x, y, z); got != want {
					t.Fatalf("%s: grid byte of (%d,%d,%d) is %v, its brick says %v", when, x, y, z, got, want)
				}
			}
		}
	}
}

// TestOccSummaryMatchesRecount pins the incremental summary maintenance
// against the brute-force recount oracle across interleaved scan insertion,
// direct occupied/free marking (including occupied→free→occupied flips of
// the same voxel), collision queries between mutations, and walker-overshoot
// insertions whose evidence lands on the masked key.
func TestOccSummaryMatchesRecount(t *testing.T) {
	tr := newTestTree()
	if tr.sum.counts == nil {
		t.Fatal("test tree unexpectedly over the summary cap")
	}
	assertSummaryExact(t, tr, "fresh tree")
	rng := rand.New(rand.NewSource(8))
	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	for round := 0; round < 6; round++ {
		origin := randomInteriorPoint(rng)
		tr.InsertCloud(origin, randomScan(rng, origin, 60))
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
	}

	// Degenerate-axis insertions: the ray walker's defensive overshoot can
	// hand the carve keys outside [0, maxKey), whose evidence aliases onto
	// the masked key (see Tree). The summary must follow the evidence.
	tr.InsertRay(geom.V(5.25, 6.0-4e-13, 1.2), geom.V(5.25, 6.0+4e-13, 0.1), true)
	tr.InsertRay(geom.V(0.25, 6.0-4e-13, 15.8), geom.V(0.25, 6.0+4e-13, 15.95), true)
	assertSummaryExact(t, tr, "degenerate-axis insertions")
}

// TestSummaryQueriesAcrossEpochWrap interleaves 70 mutation/query rounds
// (enough to have wrapped the 6-bit epoch of the class cache the exact grid
// replaced) while the summary serves the same queries, checking fused
// queries against the sequential reference the whole way: the summary and
// the grid must stay exact through every round.
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
	assertGridExact(t, tr, "after 70 rounds")
}

// TestSummaryCapDisables pins the footprint-cap degradation: a volume whose
// cell count exceeds maxDenseCells runs with the summary disabled (nil
// counts), its bricks keyed through the map and no classification grid, and
// queries still answer exactly like the sequential reference.
func TestSummaryCapDisables(t *testing.T) {
	// 2050 m at 0.125 m resolution → rootSize 4096 m, maxKey 2^15, nc 2^12:
	// 2^36 cells, far over the cap, so the bricks are keyed through the map.
	big := New(geom.Box(geom.V(0, 0, 0), geom.V(2050, 2050, 2050)), 0.125, DefaultParams())
	if big.sum.counts != nil || big.store.index != nil || big.grid != nil {
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
