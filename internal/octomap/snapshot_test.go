package octomap

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// seedInsertions replays a deterministic insertion history onto tr: the
// "mapping pass" the fork equivalence tests share between the snapshot/fork
// path and the rebuild-from-scratch reference path.
func seedInsertions(tr *Tree, seed int64, rounds int) {
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < rounds; s++ {
		origin := randomInteriorPoint(rng)
		tr.InsertCloud(origin, randomScan(rng, origin, 70))
	}
}

// TestForkThenInsertMatchesRebuildBitExact is the core fork equivalence
// gate: a tree forked from a snapshot and then mutated must be byte-identical
// (node structure, log-odds bits, summary counts, leaf-update accounting,
// digest) to a fresh tree that received the seed insertions followed by the
// same mutations — the fork adds nothing and loses nothing.
func TestForkThenInsertMatchesRebuildBitExact(t *testing.T) {
	base := newTestTree()
	seedInsertions(base, 101, 5)
	snap := base.Snapshot()
	snapDigest := snap.Digest()

	fork := snap.Fork()
	rebuild := newTestTree()
	seedInsertions(rebuild, 101, 5)

	if fork.Digest() != rebuild.Digest() {
		t.Fatal("freshly forked tree digest differs from the rebuilt seed pass")
	}

	// Identical post-fork mutations on both.
	seedInsertions(fork, 202, 3)
	seedInsertions(rebuild, 202, 3)

	compareTrees(t, fork, rebuild)
	if fork.LeafUpdates() != rebuild.LeafUpdates() {
		t.Fatalf("leaf updates diverge: fork %d, rebuild %d", fork.LeafUpdates(), rebuild.LeafUpdates())
	}
	if got, want := fork.Digest(), rebuild.Digest(); got != want {
		t.Fatalf("digest diverges after identical mutations: fork %016x, rebuild %016x", got, want)
	}
	assertSummaryExact(t, fork, "forked tree after mutations")

	// The snapshot is immutable: mutating the fork never writes back.
	if snap.Digest() != snapDigest {
		t.Fatal("mutating a fork changed the snapshot")
	}
	if refork := snap.Fork(); refork.Digest() != snapDigest {
		t.Fatal("a later fork does not reproduce the snapshot")
	}
}

// TestForkIntoRecycledTreeBitExact pins the pooled path: ForkInto onto a
// dirty, structurally different tree (different map content, a populated
// set of codes) must produce exactly the state Fork produces into a
// fresh tree, and further identical mutations must keep the two
// bit-identical.
func TestForkIntoRecycledTreeBitExact(t *testing.T) {
	base := newTestTree()
	seedInsertions(base, 303, 4)
	snap := base.Snapshot()

	// A recycled tree with unrelated content.
	recycled := newTestTree()
	seedInsertions(recycled, 999, 6)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		recycled.At(randomInteriorPoint(rng))
	}

	snap.ForkInto(recycled)
	fresh := snap.Fork()
	compareTrees(t, recycled, fresh)
	if recycled.Digest() != fresh.Digest() {
		t.Fatal("ForkInto onto a recycled tree differs from a fresh Fork")
	}
	assertCodesExact(t, recycled, "recycled fork")

	seedInsertions(recycled, 404, 2)
	seedInsertions(fresh, 404, 2)
	compareTrees(t, recycled, fresh)
	if recycled.Digest() != fresh.Digest() {
		t.Fatal("recycled and fresh forks diverge under identical mutations")
	}
	assertSummaryExact(t, recycled, "recycled fork after mutations")
}

// TestForkClassCacheTransparent pins the codes after a fork: a recycled
// tree whose codes were full of the old map's classifications must answer
// every post-fork query exactly as a control tree fed the snapshot's
// insertions without codes (so every probe reads its brick), through
// further mutations of both, across At, SegmentFree and FirstBlocked.
func TestForkClassCacheTransparent(t *testing.T) {
	base := newTestTree()
	seedInsertions(base, 505, 4)
	snap := base.Snapshot()

	cached := newTestTree()
	seedInsertions(cached, 111, 5) // unrelated map the codes classify
	rng := rand.New(rand.NewSource(9))

	snap.ForkInto(cached)
	control := bricksOnly(newTestTree())
	seedInsertions(control, 505, 4)

	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	for round := 0; round < 4; round++ {
		for i := 0; i < 150; i++ {
			p := randomInteriorPoint(rng)
			if got, want := cached.At(p), control.At(p); got != want {
				t.Fatalf("round %d: At(%v) = %v, brick-only control = %v", round, p, got, want)
			}
			a, b := randomInteriorPoint(rng), randomInteriorPoint(rng)
			if got, want := cached.SegmentFree(a, b, q), control.SegmentFree(a, b, q); got != want {
				t.Fatalf("round %d: SegmentFree = %v, control = %v", round, got, want)
			}
			gf, gok := cached.FirstBlocked(a, b, q)
			wf, wok := control.FirstBlocked(a, b, q)
			if gok != wok || math.Float64bits(gf) != math.Float64bits(wf) {
				t.Fatalf("round %d: FirstBlocked = (%v,%v), control = (%v,%v)", round, gf, gok, wf, wok)
			}
		}
		seedInsertions(cached, int64(600+round), 1)
		seedInsertions(control, int64(600+round), 1)
	}
	assertCodesExact(t, cached, "forked tree after mutations")
}

// TestForkMidEpochWrapRegression is the successor of the class-cache epoch
// wrap regression: fork into a recycled tree with stale bytes planted in its
// codes — one for a voxel the snapshot maps differently, one
// for a voxel the snapshot has never observed. ForkInto must replace the
// whole array with the snapshot's, so neither stale byte is ever served.
func TestForkMidEpochWrapRegression(t *testing.T) {
	// Old map: voxel v is Free (carved by a ray straight through it).
	v, u := geom.V(10.25, 10.25, 4.25), geom.V(20.75, 3.25, 9.75)
	old := newTestTree()
	old.InsertRay(geom.V(2.25, 10.25, 4.25), geom.V(20.25, 10.25, 4.25), false)

	// New map: the same voxel is solidly Occupied; u stays unobserved.
	next := newTestTree()
	for i := 0; i < 4; i++ {
		next.MarkOccupied(v)
	}
	snap := next.Snapshot()

	if old.At(v) != Free {
		t.Fatal("setup: voxel not Free on the old map")
	}
	ux, uy, uz, ok := old.key(u)
	if !ok {
		t.Fatal("setup: voxel keys outside the volume")
	}
	old.codes[(uz*old.ny+uy)*old.nx+ux] = brickFree

	snap.ForkInto(old)
	if got := old.At(v); got != Occupied {
		t.Fatalf("post-fork classification served the old map: got %v, want Occupied", got)
	}
	if got := old.At(u); got != Unknown {
		t.Fatalf("post-fork classification served a planted stale byte: got %v, want Unknown", got)
	}
	assertCodesExact(t, old, "fork over a stale code")
}

// TestForkPrescanExactUnderUnknownIsFree pins the bundleAllFree prescan on
// forked trees: under the optimistic policy the prescan consults the summary
// counts the fork copied, and its answers must match both a brick-only
// control tree fed the snapshot's insertions and the summary recount oracle
// while the forked tree keeps mutating.
func TestForkPrescanExactUnderUnknownIsFree(t *testing.T) {
	base := newTestTree()
	seedInsertions(base, 707, 5)
	snap := base.Snapshot()

	fork := snap.Fork()
	control := bricksOnly(newTestTree())
	seedInsertions(control, 707, 5)

	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 4; round++ {
		assertSummaryExact(t, fork, "forked tree prescan round")
		for i := 0; i < 120; i++ {
			a, b := randomInteriorPoint(rng), randomInteriorPoint(rng)
			if got, want := fork.SegmentFree(a, b, q), control.SegmentFree(a, b, q); got != want {
				t.Fatalf("round %d: fork SegmentFree = %v, control = %v", round, got, want)
			}
			gd, gok := fork.FirstBlocked(a, b, q)
			wd, wok := control.FirstBlocked(a, b, q)
			if gok != wok || gd != wd {
				t.Fatalf("round %d: fork FirstBlocked = (%v,%v), control = (%v,%v)", round, gd, gok, wd, wok)
			}
		}
		seedInsertions(fork, int64(800+round), 1)
		seedInsertions(control, int64(800+round), 1)
	}
}

// TestForkRandomizedInterleavedProperty is the randomized property gate: a
// forked tree and its rebuilt reference are driven through interleaved
// insertions, markings, and queries — including re-snapshotting the fork
// mid-history and chaining a second fork — and must stay bit-identical in
// every observable at every step.
func TestForkRandomizedInterleavedProperty(t *testing.T) {
	rounds := 8
	if testing.Short() {
		rounds = 4
	}
	base := newTestTree()
	seedInsertions(base, 909, 3)
	snap := base.Snapshot()

	fork := snap.Fork()
	rebuild := newTestTree()
	seedInsertions(rebuild, 909, 3)

	rng := rand.New(rand.NewSource(13))
	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	qStrict := QueryPolicy{Radius: 0.55}
	for round := 0; round < rounds; round++ {
		switch round % 3 {
		case 0:
			origin := randomInteriorPoint(rng)
			scan := randomScan(rng, origin, 50)
			fork.InsertCloud(origin, scan)
			rebuild.InsertCloud(origin, scan)
		case 1:
			for i := 0; i < 12; i++ {
				p := randomInteriorPoint(rng)
				fork.MarkOccupied(p)
				rebuild.MarkOccupied(p)
				if rng.Intn(2) == 0 {
					fork.MarkFree(p)
					rebuild.MarkFree(p)
				}
			}
		case 2:
			// Chain: snapshot the fork mid-history and continue on a fresh
			// fork of it (the rebuild side continues unchanged — the chained
			// fork must be transparent).
			fork = fork.Snapshot().Fork()
		}
		for i := 0; i < 60; i++ {
			p := randomInteriorPoint(rng)
			if a, b := fork.At(p), rebuild.At(p); a != b {
				t.Fatalf("round %d: At(%v) = %v vs %v", round, p, a, b)
			}
			fp, fk := fork.Prob(p)
			rp, rk := rebuild.Prob(p)
			if fp != rp || fk != rk {
				t.Fatalf("round %d: Prob(%v) = (%v,%v) vs (%v,%v)", round, p, fp, fk, rp, rk)
			}
			a, b := randomInteriorPoint(rng), randomInteriorPoint(rng)
			if fa, ra := fork.SegmentFree(a, b, q), rebuild.SegmentFree(a, b, q); fa != ra {
				t.Fatalf("round %d: SegmentFree = %v vs %v", round, fa, ra)
			}
			if fa, ra := fork.SegmentFree(a, b, qStrict), rebuild.SegmentFree(a, b, qStrict); fa != ra {
				t.Fatalf("round %d: strict SegmentFree = %v vs %v", round, fa, ra)
			}
		}
		if fork.Digest() != rebuild.Digest() {
			t.Fatalf("round %d: digests diverge", round)
		}
		assertSummaryExact(t, fork, "property round")
	}
}

// TestSnapshotExtentsNeverOverflowGrid is the regression test for the
// class-grid overflow: extents 2^21·2^21·2^22 wrap a 64-bit cell product to
// 0, which once sized an empty grid that the first At indexed out of range.
// A tree over those extents (a 2^22-leaf key cube) must run without codes,
// classify correctly, and fork into a tree that classifies and digests the
// same.
func TestSnapshotExtentsNeverOverflowGrid(t *testing.T) {
	tr := New(geom.Box(geom.V(0, 0, 0), geom.V(1<<20, 1<<20, 1<<21)), 0.5, DefaultParams())
	if tr.nx != 1<<21 || tr.ny != 1<<21 || tr.nz != 1<<22 || tr.depth != 22 {
		t.Fatalf("extents %d×%d×%d at depth %d, want 2^21×2^21×2^22 at depth 22", tr.nx, tr.ny, tr.nz, tr.depth)
	}
	if tr.codes != nil {
		t.Fatalf("%d×%d×%d codes were sized", tr.nx, tr.ny, tr.nz)
	}
	p := geom.V(10.25, 10.25, 4.25)
	tr.MarkOccupied(p)
	fork := tr.Snapshot().Fork()
	for name, c := range map[string]*Tree{"tree": tr, "fork": fork} {
		if c.At(p) != Occupied || c.At(geom.V(3, 3, 3)) != Unknown {
			t.Fatalf("%s of the huge-extent map misclassifies", name)
		}
	}
	if fork.Digest() != tr.Digest() {
		t.Fatal("fork of the huge-extent map digests differently")
	}
}

// TestSnapshotForkDifferentWorldsThroughOnePool exercises ForkInto across
// geometry changes (the pooled-tree worst case): alternating forks of two
// different worlds through one recycled tree must always land bit-identical
// to fresh forks.
func TestSnapshotForkDifferentWorldsThroughOnePool(t *testing.T) {
	small := newTestTree()
	seedInsertions(small, 21, 3)
	big := New(geom.Box(geom.V(0, 0, 0), geom.V(64, 64, 20)), 0.5, DefaultParams())
	rng := rand.New(rand.NewSource(22))
	for s := 0; s < 3; s++ {
		origin := geom.V(rng.Float64()*60+2, rng.Float64()*60+2, rng.Float64()*16+2)
		big.InsertCloud(origin, randomScan(rng, origin, 70))
	}
	snapSmall, snapBig := small.Snapshot(), big.Snapshot()

	pooled := new(Tree)
	for i := 0; i < 4; i++ {
		snapSmall.ForkInto(pooled)
		pooled.At(geom.V(5, 5, 5))
		if pooled.Digest() != snapSmall.Digest() {
			t.Fatalf("iteration %d: pooled fork of small world diverges", i)
		}
		assertCodesExact(t, pooled, "pooled fork of the small world")
		snapBig.ForkInto(pooled)
		pooled.At(geom.V(50, 50, 10))
		if pooled.Digest() != snapBig.Digest() {
			t.Fatalf("iteration %d: pooled fork of big world diverges", i)
		}
		assertCodesExact(t, pooled, "pooled fork of the big world")
	}
}
