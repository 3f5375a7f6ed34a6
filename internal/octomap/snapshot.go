package octomap

import (
	"encoding/binary"
	"hash/fnv"
	"maps"
	"math"

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
// It lives only in memory: each process builds the snapshots it forks.
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
// allocated in and of which home each voxel lives in, so a forked tree and
// a tree rebuilt from the same insertions digest identically; that is the
// byte the fork equivalence suite pins. The classification grid is derived
// from the values and not hashed.
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
