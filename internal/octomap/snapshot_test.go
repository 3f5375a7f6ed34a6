package octomap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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
// classification grid) must produce exactly the state Fork produces into a
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
	assertGridExact(t, recycled, "recycled fork")

	seedInsertions(recycled, 404, 2)
	seedInsertions(fresh, 404, 2)
	compareTrees(t, recycled, fresh)
	if recycled.Digest() != fresh.Digest() {
		t.Fatal("recycled and fresh forks diverge under identical mutations")
	}
	assertSummaryExact(t, recycled, "recycled fork after mutations")
}

// TestForkClassCacheTransparent pins the classification grid after a fork:
// a recycled tree whose grid was full of the old map's classifications must
// answer every post-fork query exactly as a control fork whose grid is set
// aside (so every probe reads its brick), through further mutations of
// both, across At, SegmentFree and FirstBlocked.
func TestForkClassCacheTransparent(t *testing.T) {
	base := newTestTree()
	seedInsertions(base, 505, 4)
	snap := base.Snapshot()

	cached := newTestTree()
	seedInsertions(cached, 111, 5) // unrelated map the grid classifies
	rng := rand.New(rand.NewSource(9))

	snap.ForkInto(cached)
	control := snap.Fork()
	control.grid = nil // classify from the bricks only

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
	assertGridExact(t, cached, "forked tree after mutations")
}

// TestForkMidEpochWrapRegression is the successor of the class-cache epoch
// wrap regression: fork into a recycled tree with stale bytes planted in its
// classification grid — one for a voxel the snapshot maps differently, one
// for a voxel the snapshot has never observed. ForkInto must replace the
// whole grid with the snapshot's, so neither stale byte is ever served.
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
	old.grid[(uz*old.ny+uy)*old.nx+ux] = uint8(Free)

	snap.ForkInto(old)
	if got := old.At(v); got != Occupied {
		t.Fatalf("post-fork classification served the old map: got %v, want Occupied", got)
	}
	if got := old.At(u); got != Unknown {
		t.Fatalf("post-fork classification served a planted stale byte: got %v, want Unknown", got)
	}
	assertGridExact(t, old, "fork over a stale grid")
}

// TestForkPrescanExactUnderUnknownIsFree pins the bundleAllFree prescan on
// forked trees: under the optimistic policy the prescan consults the summary
// counts the fork copied, and its answers must match both a brick-only
// control fork and the summary recount oracle while the forked tree keeps
// mutating.
func TestForkPrescanExactUnderUnknownIsFree(t *testing.T) {
	base := newTestTree()
	seedInsertions(base, 707, 5)
	snap := base.Snapshot()

	fork := snap.Fork()
	control := snap.Fork()
	control.grid = nil // classify from the bricks only

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

// TestSnapshotSerializationRoundTrip pins the wire format: a decoded
// snapshot must digest identically to its source, fork into a bit-identical
// tree (including the recounted summary), and survive the file helpers.
func TestSnapshotSerializationRoundTrip(t *testing.T) {
	base := newTestTree()
	seedInsertions(base, 1111, 5)
	snap := base.Snapshot()

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.Digest() != snap.Digest() {
		t.Fatal("round-tripped snapshot digest differs")
	}
	a, b := snap.Fork(), got.Fork()
	compareTrees(t, a, b)
	if a.LeafUpdates() != b.LeafUpdates() {
		t.Fatalf("leaf updates diverge across serialization: %d vs %d", a.LeafUpdates(), b.LeafUpdates())
	}
	assertSummaryExact(t, b, "deserialized fork (recounted summary)")
	assertGridExact(t, b, "deserialized fork (rebuilt grid)")
	for i := range a.grid {
		if a.grid[i] != b.grid[i] {
			t.Fatalf("rebuilt grid byte %d is %d, the source's is %d", i, b.grid[i], a.grid[i])
		}
	}

	path := filepath.Join(t.TempDir(), "seed.snap")
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	fromFile, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	if fromFile.Digest() != snap.Digest() {
		t.Fatal("file round trip digest differs")
	}
	if !fromFile.Matches(geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16)), 0.5) {
		t.Fatal("file round trip lost the world geometry")
	}
	if fromFile.Matches(geom.Box(geom.V(0, 0, 0), geom.V(64, 64, 16)), 0.5) {
		t.Fatal("Matches accepted a different world")
	}
}

// TestSnapshotReadRejectsCorrupt drives the decoder through the corruption
// taxonomy: wrong magic, unsupported versions (version 1 included),
// truncation at every section boundary, bit flips under the digest, brick
// counts beyond the cell grid or beyond the payload, and — with a forged
// (recomputed) digest, so only the structural checks can catch them — cells
// out of range or repeated, extents beyond the key cube, broken geometry,
// and log-odds that are non-finite or outside the clamps. Every case must
// fail with the right typed error and none may panic or over-allocate.
func TestSnapshotReadRejectsCorrupt(t *testing.T) {
	base := newTestTree()
	seedInsertions(base, 1212, 2)
	snap := base.Snapshot()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if bricks := len(snap.store.slab) / brickVoxels; bricks < 2 {
		t.Fatalf("test snapshot holds %d bricks, want at least 2", bricks)
	}

	check := func(name string, data []byte, want error) {
		t.Helper()
		_, err := ReadSnapshot(bytes.NewReader(data))
		if !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}

	check("empty", nil, ErrSnapshotTruncated)
	badMagic := append([]byte("NOTASEED!"), valid[len(SnapshotMagic):]...)
	check("bad magic", badMagic, ErrSnapshotMagic)
	for _, v := range []byte{1, 99} {
		badVer := append([]byte(nil), valid...)
		badVer[len(SnapshotMagic)] = v
		check(fmt.Sprintf("version %d", v), badVer, ErrSnapshotVersion)
	}
	check("truncated header", valid[:len(SnapshotMagic)+1+10], ErrSnapshotTruncated)
	check("truncated bricks", valid[:len(valid)/2], ErrSnapshotTruncated)
	check("missing footer", valid[:len(valid)-8], ErrSnapshotTruncated)

	flipped := append([]byte(nil), valid...)
	flipped[len(valid)/2] ^= 0x40
	check("digest mismatch", flipped, ErrSnapshotCorrupt)

	const bodyOff = len(SnapshotMagic) + 1
	const depthOff, extentsOff = 5 * 8, 5*8 + 4 + 5*8
	const countOff = snapshotHeaderBytes - 4
	brickOff := func(i int) int { return snapshotHeaderBytes + i*snapshotBrickBytes }
	huge := append([]byte(nil), valid...)
	putLE32(huge[bodyOff+countOff:], 0x07ffffff)
	check("brick count above the cell grid", huge, ErrSnapshotCorrupt)

	// A brick count the cell grid allows but the payload does not back must
	// fail as truncation (the io.CopyN growth rule), never as an allocation
	// of what the header declares: forge a 512 m cube (depth 10, 2^21 cells)
	// that declares every cell, ~8.6 GB of bricks.
	bigDecl := append([]byte(nil), valid...)
	putLE64(bigDecl[bodyOff+4*8:], math.Float64bits(0.5*1024))
	putLE32(bigDecl[bodyOff+depthOff:], 10)
	putLE32(bigDecl[bodyOff+countOff:], 1<<21)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	check("brick count beyond the payload", bigDecl, ErrSnapshotTruncated)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("brick count beyond the payload: decoder allocated %d MB", grew>>20)
	}

	// Forged structural corruption: mutate the body, then recompute the
	// digest so only the structural validation can catch it.
	reforge := func(mutate func(body []byte)) []byte {
		forged := append([]byte(nil), valid...)
		body := forged[bodyOff : len(forged)-8]
		mutate(body)
		putLE64(forged[len(forged)-8:], fnvSum64(body))
		return forged
	}
	check("cell out of range", reforge(func(body []byte) {
		putLE32(body[brickOff(1):], 1<<20) // the 32 m world has 8³ cells
	}), ErrSnapshotCorrupt)
	check("duplicate cell", reforge(func(body []byte) {
		copy(body[brickOff(1):brickOff(1)+4], body[brickOff(0):])
	}), ErrSnapshotCorrupt)
	check("extents beyond the key cube", reforge(func(body []byte) {
		// The overflow repro: 2^21·2^21·2^22 wraps a 64-bit product to 0.
		putLE32(body[extentsOff:], 1<<21)
		putLE32(body[extentsOff+4:], 1<<21)
		putLE32(body[extentsOff+8:], 1<<22)
	}), ErrSnapshotCorrupt)
	check("broken geometry", reforge(func(body []byte) {
		putLE64(body[4*8:], 0x7ff8000000000001) // NaN rootSize
	}), ErrSnapshotCorrupt)
	for name, v := range map[string]float64{
		"NaN log-odds":         math.NaN(),
		"infinite log-odds":    math.Inf(-1),
		"log-odds above clamp": DefaultParams().ClampMax + 0.5,
		"log-odds below clamp": DefaultParams().ClampMin - 1e-9,
	} {
		check(name, reforge(func(body []byte) {
			putLE64(body[brickOff(0)+4+8*77:], math.Float64bits(v))
		}), ErrSnapshotCorrupt)
	}
}

// TestSnapshotExtentsNeverOverflowGrid is the regression test for the
// class-grid overflow: extents 2^21·2^21·2^22 wrap a 64-bit cell product to
// 0, which once sized an empty grid that the first At indexed out of range.
// Over a 64-leaf key cube the extents are now rejected; over a 2^22-leaf
// cube they are legal, and the decoded snapshot must run without a grid and
// fork, classify and re-serialize without panicking.
func TestSnapshotExtentsNeverOverflowGrid(t *testing.T) {
	var empty bytes.Buffer
	if _, err := newTestTree().Snapshot().WriteTo(&empty); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(forgeExtents(empty.Bytes(), 0))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("extents beyond the key cube: got %v, want ErrSnapshotCorrupt", err)
	}
	s, err := ReadSnapshot(bytes.NewReader(forgeExtents(empty.Bytes(), 22)))
	if err != nil {
		t.Fatalf("extents inside a 2^22-leaf cube: %v", err)
	}
	if s.grid != nil {
		t.Fatalf("a %d×%d×%d grid was sized", s.nx, s.ny, s.nz)
	}
	tr := s.Fork()
	p := geom.V(10.25, 10.25, 4.25)
	tr.MarkOccupied(p)
	if tr.At(p) != Occupied || tr.At(geom.V(3, 3, 3)) != Unknown {
		t.Fatal("fork of the huge-extent snapshot misclassifies")
	}
	if _, err := s.WriteTo(io.Discard); err != nil {
		t.Fatalf("re-serializing the decoded snapshot: %v", err)
	}
	// A brick whose cell number passes the format's uint32 fails loudly
	// instead of being written under a truncated cell.
	if _, err := tr.Snapshot().WriteTo(io.Discard); err == nil {
		t.Fatal("a brick beyond cell 2^32 was serialized")
	}
}

// Tiny local codec helpers for the forgery cases.
func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putLE64(b []byte, v uint64) {
	putLE32(b, uint32(v))
	putLE32(b[4:], uint32(v>>32))
}

func fnvSum64(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
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
		assertGridExact(t, pooled, "pooled fork of the small world")
		snapBig.ForkInto(pooled)
		pooled.At(geom.V(50, 50, 10))
		if pooled.Digest() != snapBig.Digest() {
			t.Fatalf("iteration %d: pooled fork of big world diverges", i)
		}
		assertGridExact(t, pooled, "pooled fork of the big world")
	}
}

// TestSnapshotFileBadPath covers the file-helper error paths.
func TestSnapshotFileBadPath(t *testing.T) {
	if _, err := ReadSnapshotFile(filepath.Join(t.TempDir(), "missing.snap")); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v", err)
	}
	if err := WriteSnapshotFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x.snap"), newTestTree().Snapshot()); err == nil {
		t.Fatal("WriteSnapshotFile into a missing directory succeeded")
	}
}
