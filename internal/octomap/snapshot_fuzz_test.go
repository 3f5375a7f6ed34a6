package octomap

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
	"mavfi/internal/testutil"
)

// FuzzSnapshotRead throws mutated snapshot bytes at ReadSnapshot. The
// contract under test mirrors the record reader's: never panic, never
// allocate proportionally to a declared-but-absent brick count (the PR 8
// readFrame allocation-bomb rule), and reject anything short of an intact
// snapshot with a typed error — any other format version, version 1 (the
// octree node arena) included, with ErrSnapshotVersion. Anything accepted
// must be internally consistent: it forks into a usable tree, and it
// round-trips through WriteTo byte-for-byte.
func FuzzSnapshotRead(f *testing.F) {
	// One short scan in an 8×4×4 m world (two brick cells) keeps the seed
	// entry small enough for fast mutation: every brick is 4 KiB on the wire.
	base := New(geom.Box(geom.V(0, 0, 0), geom.V(8, 4, 4)), 0.5, DefaultParams())
	base.InsertCloud(geom.V(2, 2, 2), randomScan(rand.New(rand.NewSource(42)), geom.V(2, 2, 2), 8))
	var buf bytes.Buffer
	if _, err := base.Snapshot().WriteTo(&buf); err != nil {
		f.Fatalf("seeding snapshot: %v", err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(SnapshotMagic)+1]) // magic+version only
	f.Add(valid[:len(valid)/2])         // mid-brick truncation
	f.Add(valid[:len(valid)-4])         // clipped digest footer
	badVer := append([]byte(nil), valid...)
	badVer[len(SnapshotMagic)] = 99
	f.Add(badVer)
	huge := append([]byte(nil), valid...)
	countOff := len(SnapshotMagic) + 1 + snapshotHeaderBytes - 4
	huge[countOff+3] = 0x07 // declares ~117M bricks with no payload behind them
	f.Add(huge)
	var empty bytes.Buffer
	if _, err := newTestTree().Snapshot().WriteTo(&empty); err != nil {
		f.Fatalf("seeding empty snapshot: %v", err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("NOTASEED!"))
	f.Add([]byte{})
	// A genuine version-1 file, and the class-grid overflow repro: extents
	// 2^21·2^21·2^22, whose product wraps to 0, under a valid digest — once
	// over a 64-leaf key cube (rejected) and once over a 2^22-leaf one
	// (accepted, and forking and querying it must not panic).
	f.Add(testutil.EmptySnapshotV1(empty.Bytes()))
	f.Add(forgeExtents(empty.Bytes(), 0))
	f.Add(forgeExtents(empty.Bytes(), 22))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		s, err := ReadSnapshot(bytes.NewReader(data))
		if len(data) > len(SnapshotMagic) && string(data[:len(SnapshotMagic)]) == SnapshotMagic &&
			data[len(SnapshotMagic)] != SnapshotVersion && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("version %d input: got %v, want ErrSnapshotVersion", data[len(SnapshotMagic)], err)
		}
		if err != nil {
			if s != nil {
				t.Fatal("non-nil snapshot alongside an error")
			}
			return
		}
		if s == nil {
			t.Fatal("nil snapshot with nil error")
		}
		// Accepted snapshots must be safe to fork and query.
		tr := s.Fork()
		tr.At(s.origin)
		tr.At(s.origin.Add(geom.V(s.rootSize/2, s.rootSize/3, s.rootSize/5)))
		d := tr.Digest()
		if d != s.Digest() {
			t.Fatal("fork digest disagrees with snapshot digest")
		}
		// And must re-serialize to the exact accepted bytes.
		var out bytes.Buffer
		if _, err := s.WriteTo(&out); err != nil {
			t.Fatalf("re-serializing accepted snapshot: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted snapshot does not round-trip byte-identically")
		}
	})
}

// forgeExtents rewrites a serialized empty snapshot of the 32×32×16 m test
// world to class-grid extents 2^21, 2^21, 2^22 and, when depth > 0, to a key
// cube of 2^depth leaves, then recomputes the digest.
func forgeExtents(empty []byte, depth int) []byte {
	forged := append([]byte(nil), empty...)
	body := forged[len(SnapshotMagic)+1 : len(forged)-8]
	if depth > 0 {
		putLE64(body[4*8:], math.Float64bits(0.5*float64(int(1)<<depth)))
		putLE32(body[5*8:], uint32(depth))
	}
	const extentsOff = 5*8 + 4 + 5*8
	putLE32(body[extentsOff:], 1<<21)
	putLE32(body[extentsOff+4:], 1<<21)
	putLE32(body[extentsOff+8:], 1<<22)
	putLE64(forged[len(forged)-8:], fnvSum64(body))
	return forged
}
