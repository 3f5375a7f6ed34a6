package octomap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"os"
	"slices"

	"mavfi/internal/atomicfile"
	"mavfi/internal/geom"
)

// Snapshot is an immutable copy of a Tree's state: bricks, miss-chain codes,
// the derived summary counts and classification grid, and the geometry that
// addresses them. It is the unit of cross-mission map memoization (the PR 9
// golden-map seed): a campaign builds one mapping pass per world, snapshots
// it, and every mission of the cell starts from a Fork instead of an empty
// tree.
//
// A Snapshot is safe for concurrent use by any number of forking goroutines
// because nothing ever writes through it: Fork/ForkInto copy the slices out.
// Snapshots also serialize (WriteTo / ReadSnapshot) so a long-running
// campaign server can persist its golden maps next to its recordings and
// reload them across restarts.
type Snapshot struct {
	params Params
	geometry

	store       brickStore // immutable copy of the bricks
	codes       []uint8    // immutable miss-chain codes; nil when the chain is off
	counts      []uint16   // immutable summary counts; nil over maxDenseCells
	grid        []uint8    // immutable classification grid; nil over maxClassCells
	leafUpdates int
}

// Snapshot copies the tree's state: a memcpy each of the brick index, the
// slab, the miss-chain codes, the summary counts and the classification
// grid.
func (t *Tree) Snapshot() *Snapshot {
	return &Snapshot{
		params:   t.params,
		geometry: t.geometry,
		store: brickStore{
			index: copied(nil, t.store.index),
			big:   maps.Clone(t.store.big),
			slab:  copied(nil, t.store.slab),
		},
		codes:       copied(nil, t.codes),
		counts:      copied(nil, t.sum.counts),
		grid:        copied(nil, t.grid),
		leafUpdates: t.leafUpdates,
	}
}

// Matches reports whether the snapshot was built over exactly the tree
// geometry New(bounds, resolution, ...) would produce — the guard campaign
// layers use before forking a cached (or disk-loaded) seed for a world. It
// compares geometry only and allocates nothing.
func (s *Snapshot) Matches(bounds geom.AABB, resolution float64) bool {
	return s.geometry == newGeometry(bounds, resolution)
}

// Fork returns a fresh tree holding an exact copy of the snapshot's map. The
// forked tree is fully independent: inserting into it never writes back into
// the snapshot or into any sibling fork.
func (s *Snapshot) Fork() *Tree {
	t := new(Tree)
	s.ForkInto(t)
	return t
}

// ForkInto resets t to an exact copy of the snapshot's map, reusing t's
// brick index, slab, codes, summary and classification grid where they fit
// — the cross-mission memoization path: the pipeline recycles finished
// trees through ForkInto, so a steady-state fork is a set of memcpys with no
// allocation. The summary counts and the grid are copied, not rebuilt, and
// are exact because the snapshot's were.
func (s *Snapshot) ForkInto(t *Tree) {
	t.reinit(s.geometry, s.params)
	t.store.copyFrom(&s.store)
	t.codes = copied(t.codes, s.codes)
	t.sum.counts = copied(t.sum.counts, s.counts)
	t.grid = copied(t.grid, s.grid)
	t.leafUpdates = s.leafUpdates
}

// eachCell runs the all-values iterator over the snapshot's map.
func (s *Snapshot) eachCell(fn func(cell int, vals *[brickVoxels]float64)) {
	eachCell(s.geometry, s.params, &s.store, s.codes, fn)
}

// Digest returns an FNV-64a hash of the tree's map: geometry, sensor model,
// the leaf-update total, every cell eachCell visits (its cell number and 512
// log-odds) in ascending cell order, and the summary counts. Those cells
// are the ones a brick-only store holds bricks for, and visiting them in
// cell order makes the digest independent of the order bricks were
// allocated in and of which home each voxel lives in, so a forked tree, a
// tree rebuilt from the same insertions and a decoded snapshot digest
// identically; that is the byte the fork equivalence suite pins. The
// classification grid is derived from the values and not hashed.
func (t *Tree) Digest() uint64 {
	return digest(t.geometry, t.params, t.leafUpdates, t.eachCell, t.sum.counts)
}

// Digest returns the digest a tree forked from this snapshot would report.
func (s *Snapshot) Digest() uint64 {
	return digest(s.geometry, s.params, s.leafUpdates, s.eachCell, s.counts)
}

func digest(g geometry, p Params, leafUpdates int, each func(func(int, *[brickVoxels]float64)), counts []uint16) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, f := range []float64{g.resolution, g.origin.X, g.origin.Y, g.origin.Z, g.rootSize, float64(g.depth),
		p.LogOddsHit, p.LogOddsMiss, p.ClampMin, p.ClampMax, p.OccThresh, float64(leafUpdates)} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	h.Write(b)
	each(func(cell int, vals *[brickVoxels]float64) {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(cell))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		h.Write(b)
	})
	b = b[:0]
	for _, c := range counts {
		b = binary.LittleEndian.AppendUint16(b, c)
	}
	h.Write(b)
	return h.Sum64()
}

// Snapshot serialization. The format follows the record package's framing
// discipline (magic, version byte, little-endian payload, FNV-64a digest
// footer) with the same reader-safety rules the PR 8 FuzzRecordRead fix
// established: nothing is ever preallocated from a length the wire declares,
// and every invariant the in-memory store relies on is revalidated before a
// brick is trusted.
//
// Layout (all little-endian):
//
//	"MAVFISEED" | version byte | header | bricks | digest
//	header: resolution, origin{X,Y,Z}, rootSize float64; depth uint32;
//	        params{Hit,Miss,ClampMin,ClampMax,OccThresh} float64;
//	        class-grid extents nx, ny, nz uint32; leafUpdates uint64;
//	        brickCount uint32
//	brick:  cell uint32 | 512 × logOdds float64   (4100 bytes; cells ascending)
//	digest: FNV-64a over header+bricks
//
// The bricks are the cells eachCell visits, each with its 512 values read
// from their homes: the cells a brick-only store allocates, so the bytes do
// not depend on which voxels live on the miss chain. The summary counts,
// the classification grid and the miss-chain codes are derived state and
// are not serialized; ReadSnapshot rebuilds them from the values, so a
// corrupted file can never smuggle in counts, classes or codes inconsistent
// with its map.
// Version 1 carried the octree's node arena; a version-1 file fails with
// ErrSnapshotVersion, and every caller rebuilds the map instead.
const (
	// SnapshotMagic prefixes every serialized golden-map seed.
	SnapshotMagic = "MAVFISEED"
	// SnapshotVersion is the current format version.
	SnapshotVersion = 2
)

// Typed snapshot-decode errors, in the record package's style: corrupt input
// fails loudly and specifically, and callers (the warm-asset cache, the fuzz
// target) can distinguish truncation from structural corruption.
var (
	// ErrSnapshotMagic marks input that is not a serialized snapshot.
	ErrSnapshotMagic = errors.New("octomap: bad snapshot magic (not a golden-map seed)")
	// ErrSnapshotVersion marks an unsupported format version.
	ErrSnapshotVersion = errors.New("octomap: unsupported snapshot version")
	// ErrSnapshotTruncated marks a snapshot cut off before its digest.
	ErrSnapshotTruncated = errors.New("octomap: truncated snapshot")
	// ErrSnapshotCorrupt marks a structurally invalid snapshot (bad geometry,
	// a brick count or cell out of range, cells out of order, an invalid
	// log-odds value, or a digest mismatch).
	ErrSnapshotCorrupt = errors.New("octomap: corrupt snapshot")
)

const (
	snapshotHeaderBytes = 5*8 + 4 + 5*8 + 3*4 + 8 + 4
	snapshotBrickBytes  = 4 + brickVoxels*8
)

// WriteTo serializes the snapshot. It implements io.WriterTo. It fails on a
// brick whose cell number does not fit the format's uint32, which takes a
// key cube of at least 2^14 leaves per axis (8 km at 0.5 m).
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bricks := 0
	s.eachCell(func(int, *[brickVoxels]float64) { bricks++ })
	buf := make([]byte, 0, len(SnapshotMagic)+1+snapshotHeaderBytes+bricks*snapshotBrickBytes+8)
	buf = append(buf, SnapshotMagic...)
	buf = append(buf, SnapshotVersion)
	body := len(buf)
	le := binary.LittleEndian
	putF := func(f float64) { buf = le.AppendUint64(buf, math.Float64bits(f)) }
	putF(s.resolution)
	putF(s.origin.X)
	putF(s.origin.Y)
	putF(s.origin.Z)
	putF(s.rootSize)
	buf = le.AppendUint32(buf, uint32(s.depth))
	putF(s.params.LogOddsHit)
	putF(s.params.LogOddsMiss)
	putF(s.params.ClampMin)
	putF(s.params.ClampMax)
	putF(s.params.OccThresh)
	buf = le.AppendUint32(buf, uint32(s.nx))
	buf = le.AppendUint32(buf, uint32(s.ny))
	buf = le.AppendUint32(buf, uint32(s.nz))
	buf = le.AppendUint64(buf, uint64(s.leafUpdates))
	buf = le.AppendUint32(buf, uint32(bricks))
	var err error
	s.eachCell(func(cell int, vals *[brickVoxels]float64) {
		if cell > math.MaxUint32 {
			err = fmt.Errorf("octomap: cell %d does not fit the snapshot format", cell)
		}
		buf = le.AppendUint32(buf, uint32(cell))
		for _, v := range vals {
			putF(v)
		}
	})
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(buf[body:])
	buf = le.AppendUint64(buf, h.Sum64())
	n, err := w.Write(buf)
	return int64(n), err
}

// WriteSnapshotFile serializes the snapshot to path atomically (temp file +
// rename via atomicfile). Readers digest-verify, so a torn plain write would
// merely be rejected and rebuilt — but a crash mid-write used to leave a
// corrupt file squatting on the cache path until the next rebuild overwrote
// it, and the campaign dispatcher now serves these files to worker shards,
// so the write path guarantees whole files outright.
func WriteSnapshotFile(path string, s *Snapshot) error {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadSnapshot decodes one serialized snapshot from r, validating the magic,
// version, geometry, brick count, every cell and log-odds value, and the
// digest footer before any of it is trusted. Truncated input returns
// ErrSnapshotTruncated; structurally invalid input returns an error wrapping
// ErrSnapshotCorrupt. The declared brick count never sizes an allocation
// directly (the PR 8 readFrame rule): the payload is grown through io.CopyN,
// so a corrupt count fails at the input's actual size instead of allocating
// what the header promises.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	magic := make([]byte, len(SnapshotMagic)+1)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotTruncated, err)
	}
	if string(magic[:len(SnapshotMagic)]) != SnapshotMagic {
		return nil, ErrSnapshotMagic
	}
	if magic[len(SnapshotMagic)] != SnapshotVersion {
		return nil, fmt.Errorf("%w: got %d, reader supports %d",
			ErrSnapshotVersion, magic[len(SnapshotMagic)], SnapshotVersion)
	}

	header := make([]byte, snapshotHeaderBytes)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrSnapshotTruncated, err)
	}
	h := fnv.New64a()
	h.Write(header)

	le := binary.LittleEndian
	off := 0
	getF := func() float64 {
		v := math.Float64frombits(le.Uint64(header[off:]))
		off += 8
		return v
	}
	getU32 := func() int {
		v := le.Uint32(header[off:])
		off += 4
		return int(v)
	}
	var g geometry
	var p Params
	g.resolution = getF()
	g.origin = geom.V(getF(), getF(), getF())
	g.rootSize = getF()
	g.depth = getU32()
	p.LogOddsHit = getF()
	p.LogOddsMiss = getF()
	p.ClampMin = getF()
	p.ClampMax = getF()
	p.OccThresh = getF()
	g.nx, g.ny, g.nz = getU32(), getU32(), getU32()
	leafUpdates := int(le.Uint64(header[off:]))
	off += 8
	brickCount := getU32()

	// Geometry must reproduce exactly what New computes from it: the depth
	// and root size are redundant with the resolution, and the extents lie
	// inside the key cube (which bounds the classification grid they size).
	maxKey := 1 << min(g.depth, maxDepth)
	if !(g.resolution > 0) || math.IsInf(g.resolution, 0) ||
		g.depth > maxDepth ||
		g.rootSize != g.resolution*float64(maxKey) ||
		!g.origin.IsFinite() ||
		g.nx < 1 || g.ny < 1 || g.nz < 1 || g.nx > maxKey || g.ny > maxKey || g.nz > maxKey ||
		leafUpdates < 0 {
		return nil, fmt.Errorf("%w: invalid geometry", ErrSnapshotCorrupt)
	}
	t := new(Tree)
	t.reinit(g, p)
	nc := uint64(t.nc)
	cells := nc * nc * nc // at most 2^63 under maxDepth
	if uint64(brickCount) > cells {
		return nil, fmt.Errorf("%w: %d bricks declared for %d cells", ErrSnapshotCorrupt, brickCount, cells)
	}

	var payload bytes.Buffer
	want := int64(brickCount) * snapshotBrickBytes
	if got, err := io.CopyN(&payload, r, want); err != nil {
		return nil, fmt.Errorf("%w: bricks: got %d of %d bytes", ErrSnapshotTruncated, got, want)
	}
	h.Write(payload.Bytes())

	var footer [8]byte
	if _, err := io.ReadFull(r, footer[:]); err != nil {
		return nil, fmt.Errorf("%w: digest footer: %v", ErrSnapshotTruncated, err)
	}
	if le.Uint64(footer[:]) != h.Sum64() {
		return nil, fmt.Errorf("%w: digest mismatch", ErrSnapshotCorrupt)
	}

	// Rebuild the map brick by brick, deriving the summary and the grid
	// through the same reclassify every write uses. A value of the bounds
	// equal to a miss-chain step after 0 goes on the chain, and every other
	// value except +0 into its brick. A cell that would end up in neither
	// home (all 512 values +0) keeps its zero brick, so eachCell visits
	// every cell of the file and WriteTo gives back the bytes read.
	t.empty()
	t.store.slab = make([]float64, 0, brickCount*brickVoxels) // the payload is all there
	raw := payload.Bytes()
	prev := -1
	for i := range brickCount {
		rec := raw[i*snapshotBrickBytes:][:snapshotBrickBytes]
		cell := int(le.Uint32(rec))
		if uint64(cell) >= cells || cell <= prev {
			return nil, fmt.Errorf("%w: brick %d: cell %d out of range or order", ErrSnapshotCorrupt, i, cell)
		}
		prev = cell
		base, kept := -1, false
		cx := cell % t.nc << brickShift
		cy := cell / t.nc % t.nc << brickShift
		cz := cell / t.nc / t.nc << brickShift
		for j := range brickVoxels {
			bits := le.Uint64(rec[4+8*j:])
			if bits == 0 {
				continue // +0: unknown in either home
			}
			v := math.Float64frombits(bits)
			x, y, z := cx|j&7, cy|(j>>brickShift)&7, cz|j>>(2*brickShift)
			if v != 0 && (math.IsInf(v, 0) || !(v >= p.ClampMin && v <= p.ClampMax) ||
				x >= t.maxKey || y >= t.maxKey || z >= t.maxKey) {
				return nil, fmt.Errorf("%w: brick %d holds log-odds %v at key (%d,%d,%d)", ErrSnapshotCorrupt, i, v, x, y, z)
			}
			kept = true
			c, chained := t.onChain(x, y, z) // a voxel of the bounds starts at step 0
			k := -1
			if chained {
				k = slices.Index(t.chain[1:], v)
			}
			if k >= 0 {
				t.codes[c] = uint8(k + 1)
			} else {
				if base < 0 {
					base = t.store.brick(cell)
				}
				t.store.slab[base+j] = v
				if chained {
					t.codes[c] = inBrick
				}
			}
			if v != 0 {
				t.reclassify(x, y, z, Unknown, t.classOf(v))
			}
		}
		if !kept {
			t.store.brick(cell)
		}
	}
	return &Snapshot{
		params:      p,
		geometry:    g,
		store:       t.store,
		codes:       t.codes,
		counts:      t.sum.counts,
		grid:        t.grid,
		leafUpdates: leafUpdates,
	}, nil
}

// ReadSnapshotFile decodes the snapshot at path.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
