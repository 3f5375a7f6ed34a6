package octomap

import (
	"encoding/binary"
	"hash/fnv"
	"maps"
	"math"

	"mavfi/internal/geom"
)

// Snapshot is an immutable copy of a Tree's state: bricks, per-voxel codes,
// the derived summary words, and the geometry that addresses them. It is
// the unit of cross-mission map memoization (the golden-map seed): a
// campaign builds one mapping pass per world, snapshots it, and every
// mission of the cell starts from a Fork instead of an empty tree.
//
// A Snapshot is safe for concurrent use by any number of forking goroutines
// because nothing ever writes through it: Fork/ForkInto copy the slices out.
// It lives only in memory: each process builds the snapshots it forks.
type Snapshot struct {
	params Params
	geometry

	store       brickStore // immutable copy of the bricks
	codes       []uint8    // immutable per-voxel codes; nil over maxClassCells
	sum         occSummary // immutable summary
	leafUpdates int
}

// Snapshot copies the tree's state: a memcpy each of the brick index, the
// slab, the codes and the summary words.
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
		sum:         occSummary{layers: copied(nil, t.sum.layers), above: t.sum.above},
		leafUpdates: t.leafUpdates,
	}
}

// Matches reports whether the snapshot was built over exactly the tree
// geometry New(bounds, resolution, ...) would produce — the guard a mission
// uses before forking a seed, so a seed built for another world fails
// loudly. It compares geometry only and allocates nothing.
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
// brick index, slab, codes and summary where they fit — the cross-mission
// memoization path: the pipeline recycles finished trees through ForkInto,
// so a steady-state fork is a set of memcpys with no allocation. The
// summary words are copied, not rebuilt, and are exact because the
// snapshot's were.
func (s *Snapshot) ForkInto(t *Tree) {
	t.reinit(s.geometry, s.params)
	t.store.copyFrom(&s.store)
	t.codes = copied(t.codes, s.codes)
	t.sum.copyFrom(&s.sum)
	t.leafUpdates = s.leafUpdates
}

// Bytes returns how many bytes ForkInto copies out of the snapshot: its
// brick index, slab, codes and summary words (a volume over maxDenseCells
// also clones a brick map, which is not counted).
func (s *Snapshot) Bytes() int {
	return 4*len(s.store.index) + 8*len(s.store.slab) + len(s.codes) + 8*len(s.sum.layers)
}

// eachCell runs the all-values iterator over the snapshot's map.
func (s *Snapshot) eachCell(fn func(cell int, vals *[brickVoxels]float64)) {
	eachCell(s.geometry, s.params, &s.store, s.codes, fn)
}

// Digest returns an FNV-64a hash of the tree's map: geometry, sensor model,
// the leaf-update total, every cell eachCell visits (its cell number and 512
// log-odds) in ascending cell order, and the summary's per-cell totals
// (eachTotal), each hashed as the uint16 the summary once stored. Those cells
// are the ones a brick-only store holds bricks for, and visiting them in
// cell order makes the digest independent of the order bricks were
// allocated in and of which home each voxel lives in, so a forked tree and
// a tree rebuilt from the same insertions digest identically; that is the
// byte the fork equivalence suite pins. The codes are hashed only through
// the values they hold; their classes derive from the values.
func (t *Tree) Digest() uint64 {
	return digest(t.geometry, t.params, t.leafUpdates, t.eachCell, &t.sum, &t.store)
}

// Digest returns the digest a tree forked from this snapshot would report.
func (s *Snapshot) Digest() uint64 {
	return digest(s.geometry, s.params, s.leafUpdates, s.eachCell, &s.sum, &s.store)
}

func digest(g geometry, p Params, leafUpdates int, each func(func(int, *[brickVoxels]float64)), sum *occSummary, st *brickStore) uint64 {
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
	sum.eachTotal(g.cellsPerAxis(), st, p, func(n uint16) {
		b = binary.LittleEndian.AppendUint16(b, n)
	})
	h.Write(b)
	return h.Sum64()
}
