package matrix

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mavfi/internal/octomap"
	"mavfi/internal/pipeline"
	"mavfi/internal/testutil"
)

// TestMapSeedRebuildsOverCorruptFile pins the crash-recovery path of the seed
// cache: a .mapseed file truncated mid-write (a crash before atomic rename
// existed would leave exactly this) or overwritten with garbage must not
// poison MapSeed. The snapshot reader's digest check rejects the bytes, the
// seed is rebuilt from scratch — bit-identical by construction — and the good
// bytes are written back over the bad file.
func TestMapSeedRebuildsOverCorruptFile(t *testing.T) {
	dir := t.TempDir()
	a := NewAssets()
	a.SetSeedDir(dir)
	built, err := a.MapSeed("sparse")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sparse.mapseed")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, bad := range map[string][]byte{
		"truncated": good[: len(good)/2 : len(good)/2],
		"garbage":   []byte("\x00not a snapshot\x00"),
		"empty":     {},
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			b := NewAssets()
			b.SetSeedDir(dir)
			s, err := b.MapSeed("sparse")
			if err != nil {
				t.Fatalf("MapSeed over a %s seed file: %v", name, err)
			}
			if s.Digest() != built.Digest() {
				t.Fatalf("%s seed file rebuilt into a different seed", name)
			}
			if reread, err := octomap.ReadSnapshotFile(path); err != nil || reread.Digest() != built.Digest() {
				t.Fatalf("rebuild did not repair the %s seed file (err %v)", name, err)
			}
		})
	}
}

// TestMapSeedRebuildsOverV1File pins the format upgrade of the seed cache: a
// version-1 .mapseed file (the octree node-arena format) left in the seed
// directory by an older build is never trusted. MapSeed rebuilds the world's
// seed — bit-identical to a fresh build — and atomically rewrites the file
// in the current format, leaving no temporary file behind.
func TestMapSeedRebuildsOverV1File(t *testing.T) {
	w, err := World("sparse")
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := pipeline.EmptyMapSeed(w).Snapshot().WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	v1 := testutil.EmptySnapshotV1(v2.Bytes())
	if _, err := octomap.ReadSnapshot(bytes.NewReader(v1)); !errors.Is(err, octomap.ErrSnapshotVersion) {
		t.Fatalf("reading a version-1 seed: got %v, want ErrSnapshotVersion", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "sparse.mapseed")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	a := NewAssets()
	a.SetSeedDir(dir)
	s, err := a.MapSeed("sparse")
	if err != nil {
		t.Fatalf("MapSeed over a version-1 seed file: %v", err)
	}
	built := pipeline.BuildMapSeed(w)
	if s.Digest() != built.Digest() {
		t.Fatal("version-1 seed file rebuilt into a different seed")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(octomap.SnapshotMagic)] != octomap.SnapshotVersion {
		t.Fatalf("seed file left at version %d", data[len(octomap.SnapshotMagic)])
	}
	if reread, err := octomap.ReadSnapshot(bytes.NewReader(data)); err != nil || reread.Digest() != built.Digest() {
		t.Fatalf("rewritten seed file does not decode to the rebuilt seed (err %v)", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("seed dir holds %d entries after the rewrite, want 1 (err %v)", len(entries), err)
	}
}

// TestInstallSeedSnapshotRejectsWrongWorld pins the worker-shard seed-sharing
// guard: a snapshot whose geometry belongs to a different world is rejected
// (the worker then degrades to a local build) and leaves no cache entry,
// while installing the right snapshot succeeds and later installs no-op.
func TestInstallSeedSnapshotRejectsWrongWorld(t *testing.T) {
	factory, err := World("factory")
	if err != nil {
		t.Fatal(err)
	}
	wrong := pipeline.BuildMapSeed(factory).Snapshot()

	a := NewAssets()
	if err := a.InstallSeedSnapshot("sparse", wrong); err == nil {
		t.Fatal("installed a factory snapshot as the sparse golden map")
	}
	if a.HasSeed("sparse") {
		t.Fatal("rejected snapshot left a cache entry behind")
	}

	sparse, err := World("sparse")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InstallSeedSnapshot("sparse", pipeline.BuildMapSeed(sparse).Snapshot()); err != nil {
		t.Fatalf("installing the matching snapshot: %v", err)
	}
	if !a.HasSeed("sparse") {
		t.Fatal("installed seed not cached")
	}
	// An already-cached world ignores further installs, even wrong ones.
	if err := a.InstallSeedSnapshot("sparse", wrong); err != nil {
		t.Fatalf("install on a cached world must no-op, got: %v", err)
	}
}
