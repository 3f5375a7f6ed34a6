package octomap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"mavfi/internal/atomicfile"
	"mavfi/internal/geom"
)

// Snapshot is an immutable copy of a Tree's semantic state: the node arena,
// the derived occupancy-summary counts, and the geometry that addresses them.
// It is the unit of cross-mission map memoization (the PR 9 golden-map seed):
// a campaign builds one mapping pass per world, snapshots it, and every
// mission of the cell starts from a Fork instead of an empty tree.
//
// A Snapshot is safe for concurrent use by any number of forking goroutines
// because nothing ever writes through it: Fork/ForkInto copy the slabs out,
// and the caches (path, query, classification) are per-Tree state that is
// reset — never shared — on fork. Snapshots also serialize (WriteTo /
// ReadSnapshot) so a long-running campaign server can persist its golden
// maps next to its recordings and reload them across restarts.
type Snapshot struct {
	params Params
	geometry

	nodes       []node   // immutable arena copy; index 0 is the root
	counts      []uint16 // immutable summary counts; nil when over the cap
	sumNB       int
	leafUpdates int
}

// Snapshot deep-copies the tree's semantic state. The copy is a memcpy of
// the node slab plus the summary counts — the arena is a contiguous
// index-linked slab, so no pointer graph needs walking — and none of the
// per-Tree caches travel with it (they are descent/classification memos, not
// map content).
func (t *Tree) Snapshot() *Snapshot {
	return &Snapshot{
		params: t.params,
		geometry: geometry{
			resolution: t.resolution, depth: t.depth, origin: t.origin, rootSize: t.rootSize,
			nx: t.cls.nx, ny: t.cls.ny, nz: t.cls.nz,
		},
		nodes:       append([]node(nil), t.nodes...),
		counts:      append([]uint16(nil), t.counts()...),
		sumNB:       t.sum.nb,
		leafUpdates: t.leafUpdates,
	}
}

// counts returns the summary slice (nil-preserving helper for Snapshot).
func (t *Tree) counts() []uint16 { return t.sum.counts }

// NumNodes returns the snapshot's arena size, a memory-footprint proxy.
func (s *Snapshot) NumNodes() int { return len(s.nodes) }

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
// existing allocations (node arena capacity, summary slab, classification
// grid) where they fit — the cross-mission memoization path: the pipeline
// recycles finished trees through ForkInto so steady-state forks are two
// memcpys with no allocation.
//
// Everything semantic is copied from the snapshot; everything memoised is
// invalidated by reinit, the step ForkInto shares with Reset (see reinit for
// why the invalidation is explicit). The summary counts are copied from the
// snapshot, which is what keeps the bundleAllFree prescan exact on forked
// trees.
func (s *Snapshot) ForkInto(t *Tree) {
	t.reinit(s.geometry, s.params)
	if cap(t.nodes) < len(s.nodes) {
		// First fork into this tree (or a bigger world than last time):
		// size the arena like New does, with headroom for the mission's own
		// expansion on top of the seed.
		t.nodes = make([]node, 0, max(len(s.nodes)+len(s.nodes)/4, arenaPresize))
	}
	t.nodes = append(t.nodes[:0], s.nodes...)

	t.sum.nb = s.sumNB
	switch {
	case s.counts == nil:
		t.sum.counts = nil
	case cap(t.sum.counts) >= len(s.counts):
		t.sum.counts = t.sum.counts[:len(s.counts)]
		copy(t.sum.counts, s.counts)
	default:
		t.sum.counts = append([]uint16(nil), s.counts...)
	}

	t.leafUpdates = s.leafUpdates
}

// rebuildSummary recomputes the occupancy summary from the node arena by
// full reclassification — the recount ReadSnapshot uses (counts are derived
// state, so they are rebuilt rather than trusted from the wire) and the
// oracle the fork equivalence tests compare incremental counts against.
func (t *Tree) rebuildSummary() {
	t.initSummary()
	if t.sum.counts == nil {
		return
	}
	t.recount(0, t.depth-1, 0, 0, 0)
}

// recount walks the subtree at arena index ni, whose children select with
// key bit `bit`, accumulating occupied unit leaves into the summary. Coarse
// leaves (bit >= 0) hold exactly-zero log-odds — evidence only lands at unit
// depth — so only bit < 0 leaves can contribute.
func (t *Tree) recount(ni int32, bit, x, y, z int) {
	fc := t.nodes[ni].firstChild
	if fc == noChild {
		if bit < 0 {
			if lo := t.nodes[ni].logOdds; lo != 0 && lo >= t.params.OccThresh {
				t.sum.counts[t.summaryIndex(x, y, z)]++
			}
		}
		return
	}
	for i := int32(0); i < 8; i++ {
		t.recount(fc+i, bit-1,
			x|int(i>>2&1)<<bit,
			y|int(i>>1&1)<<bit,
			z|int(i&1)<<bit)
	}
}

// Digest returns an FNV-64a hash of the tree's semantic state: geometry,
// sensor model, the full node arena, the summary counts, and the leaf-update
// total. Cache state and the mutation counter are deliberately excluded —
// they memoise work, they are not map content — so a forked tree and a tree
// rebuilt from the same insertions digest identically, which is the byte
// the fork equivalence suite pins.
func (t *Tree) Digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	putF := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	putF(t.resolution)
	putF(t.origin.X)
	putF(t.origin.Y)
	putF(t.origin.Z)
	putF(t.rootSize)
	putF(float64(t.depth))
	putF(t.params.LogOddsHit)
	putF(t.params.LogOddsMiss)
	putF(t.params.ClampMin)
	putF(t.params.ClampMax)
	putF(t.params.OccThresh)
	putF(float64(t.leafUpdates))
	for i := range t.nodes {
		putF(t.nodes[i].logOdds)
		binary.LittleEndian.PutUint32(b[:4], uint32(t.nodes[i].firstChild))
		h.Write(b[:4])
	}
	for _, c := range t.sum.counts {
		binary.LittleEndian.PutUint16(b[:2], c)
		h.Write(b[:2])
	}
	return h.Sum64()
}

// Digest returns the digest a tree forked from this snapshot would report.
func (s *Snapshot) Digest() uint64 {
	t := s.Fork()
	return t.Digest()
}

// Snapshot serialization. The format follows the record package's framing
// discipline (magic, version byte, little-endian payload, FNV-64a digest
// footer) with the same reader-safety rules the PR 8 FuzzRecordRead fix
// established: nothing is ever preallocated from a length the wire declares,
// and every structural invariant the in-memory representation relies on is
// revalidated before a node is trusted.
//
// Layout (all little-endian):
//
//	"MAVFISEED" | version byte | header | nodes | digest
//	header: resolution, origin{X,Y,Z}, rootSize float64; depth uint32;
//	        params{Hit,Miss,ClampMin,ClampMax,OccThresh} float64;
//	        class-cache extents nx, ny, nz uint32; leafUpdates uint64;
//	        nodeCount uint32
//	node:   logOdds float64 | firstChild int32   (12 bytes)
//	digest: FNV-64a over header+nodes
//
// The summary counts are derived state and are not serialized; ReadSnapshot
// rebuilds them by recount, so a corrupted file can never smuggle in counts
// inconsistent with its arena.
const (
	// SnapshotMagic prefixes every serialized golden-map seed.
	SnapshotMagic = "MAVFISEED"
	// SnapshotVersion is the current format version.
	SnapshotVersion = 1
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
	// out-of-range child links, or a digest mismatch).
	ErrSnapshotCorrupt = errors.New("octomap: corrupt snapshot")
)

// maxSnapshotNodes bounds the node count a snapshot may declare: far above
// any real arena (the largest worlds build a few hundred thousand nodes) but
// small enough that the count can never size a pathological allocation.
const maxSnapshotNodes = 1 << 27

const snapshotNodeBytes = 12

// WriteTo serializes the snapshot. It implements io.WriterTo.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.WriteString(SnapshotMagic)
	buf.WriteByte(SnapshotVersion)

	body := new(bytes.Buffer)
	putF := func(f float64) { binary.Write(body, binary.LittleEndian, math.Float64bits(f)) }
	putU32 := func(v uint32) { binary.Write(body, binary.LittleEndian, v) }
	putF(s.resolution)
	putF(s.origin.X)
	putF(s.origin.Y)
	putF(s.origin.Z)
	putF(s.rootSize)
	putU32(uint32(s.depth))
	putF(s.params.LogOddsHit)
	putF(s.params.LogOddsMiss)
	putF(s.params.ClampMin)
	putF(s.params.ClampMax)
	putF(s.params.OccThresh)
	putU32(uint32(s.nx))
	putU32(uint32(s.ny))
	putU32(uint32(s.nz))
	binary.Write(body, binary.LittleEndian, uint64(s.leafUpdates))
	putU32(uint32(len(s.nodes)))
	for i := range s.nodes {
		binary.Write(body, binary.LittleEndian, math.Float64bits(s.nodes[i].logOdds))
		binary.Write(body, binary.LittleEndian, uint32(s.nodes[i].firstChild))
	}

	h := fnv.New64a()
	h.Write(body.Bytes())
	buf.Write(body.Bytes())
	binary.Write(&buf, binary.LittleEndian, h.Sum64())
	n, err := w.Write(buf.Bytes())
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
// version, geometry, every child link, and the digest footer before any of
// it is trusted. Truncated input returns ErrSnapshotTruncated; structurally
// invalid input returns an error wrapping ErrSnapshotCorrupt. The declared
// node count never sizes an allocation directly (the PR 8 readFrame rule):
// the node payload is grown through io.CopyN, so a corrupt count fails at
// the input's actual size instead of allocating what the header promises.
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

	const headerBytes = 5*8 + 4 + 5*8 + 3*4 + 8 + 4
	header := make([]byte, headerBytes)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrSnapshotTruncated, err)
	}
	h := fnv.New64a()
	h.Write(header)

	off := 0
	getF := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(header[off:]))
		off += 8
		return v
	}
	getU32 := func() uint32 {
		v := binary.LittleEndian.Uint32(header[off:])
		off += 4
		return v
	}
	s := &Snapshot{}
	s.resolution = getF()
	s.origin = geom.V(getF(), getF(), getF())
	s.rootSize = getF()
	s.depth = int(getU32())
	s.params.LogOddsHit = getF()
	s.params.LogOddsMiss = getF()
	s.params.ClampMin = getF()
	s.params.ClampMax = getF()
	s.params.OccThresh = getF()
	s.nx = int(getU32())
	s.ny = int(getU32())
	s.nz = int(getU32())
	s.leafUpdates = int(binary.LittleEndian.Uint64(header[off:]))
	off += 8
	nodeCount := getU32()

	// Geometry must reproduce exactly what New computes from it: the depth
	// and root size are redundant with the resolution, and the descent
	// machinery (32-entry path arrays, power-of-two key cube) relies on the
	// relationship holding.
	if !(s.resolution > 0) || math.IsInf(s.resolution, 0) ||
		s.depth < 0 || s.depth > 31 ||
		s.rootSize != s.resolution*float64(int(1)<<s.depth) ||
		!s.origin.IsFinite() ||
		s.nx < 1 || s.ny < 1 || s.nz < 1 ||
		s.leafUpdates < 0 {
		return nil, fmt.Errorf("%w: invalid geometry", ErrSnapshotCorrupt)
	}
	if nodeCount < 1 || nodeCount > maxSnapshotNodes {
		return nil, fmt.Errorf("%w: implausible node count %d", ErrSnapshotCorrupt, nodeCount)
	}

	var payload bytes.Buffer
	if got, err := io.CopyN(&payload, r, int64(nodeCount)*snapshotNodeBytes); err != nil {
		return nil, fmt.Errorf("%w: nodes: got %d of %d bytes",
			ErrSnapshotTruncated, got, int64(nodeCount)*snapshotNodeBytes)
	}
	h.Write(payload.Bytes())

	var footer [8]byte
	if _, err := io.ReadFull(r, footer[:]); err != nil {
		return nil, fmt.Errorf("%w: digest footer: %v", ErrSnapshotTruncated, err)
	}
	if binary.LittleEndian.Uint64(footer[:]) != h.Sum64() {
		return nil, fmt.Errorf("%w: digest mismatch", ErrSnapshotCorrupt)
	}

	raw := payload.Bytes()
	s.nodes = make([]node, nodeCount)
	for i := range s.nodes {
		b := raw[i*snapshotNodeBytes:]
		s.nodes[i].logOdds = math.Float64frombits(binary.LittleEndian.Uint64(b))
		s.nodes[i].firstChild = int32(binary.LittleEndian.Uint32(b[8:]))
	}
	// Child links must form the arena structure expand produces — root at
	// index 0, eight-child blocks appended behind it — before any descent
	// may trust them: fc is either noChild or the 8-aligned start of a block
	// that lies fully inside the arena.
	for i := range s.nodes {
		fc := s.nodes[i].firstChild
		if fc == noChild {
			continue
		}
		if fc < 1 || int(fc)+8 > len(s.nodes) || (fc-1)%8 != 0 {
			return nil, fmt.Errorf("%w: node %d has invalid child link %d", ErrSnapshotCorrupt, i, fc)
		}
	}

	// Rebuild the derived summary from the validated arena.
	t := s.Fork()
	t.rebuildSummary()
	s.counts = append([]uint16(nil), t.sum.counts...)
	s.sumNB = t.sum.nb
	return s, nil
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
