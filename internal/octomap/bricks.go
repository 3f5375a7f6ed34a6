package octomap

import (
	"maps"
	"slices"
)

// brickShift sets the brick edge: 8 leaf voxels per axis, 512 per brick. A
// brick covers exactly one 8³ cell of the key cube, the same cell the
// occupancy summary counts over, so the bricks, the dense brick index and
// the summary share one cell grid of nc³ cells (the summary its prefix).
const brickShift = 3

// brickVoxels is the number of log-odds values one brick holds.
const brickVoxels = 1 << (3 * brickShift)

// maxDenseCells caps the cell grid a volume may address densely: the brick
// index (4 bytes per cell, 8 MiB at the cap) and the occupancy summary (8
// bytes per cell of the cell layers the bounds reach). A volume over the
// cap keys its bricks through a map and runs without the summary; the
// paper's largest world (Farm) needs 2^15 cells.
const maxDenseCells = 1 << 21

// maxClassCells caps the codes' footprint (one byte per leaf key of the
// world bounds, the voxel's chain step or brick code; see chain.go). The
// paper's largest world (Farm, 80×80×20 m at 0.5 m) needs ~1M codes; a
// world over the cap keeps every voxel in its brick and classifies every
// probe from there.
const maxClassCells = 4 << 20

// maxDepth bounds the key cube at 2^24 leaves per axis (8,388 km at the
// 0.5 m default), so every flat cell number (below nc³ ≤ 2^63) fits an int.
const maxDepth = 24

// brickStore holds the map's log-odds in 8³ bricks that are allocated, zeroed,
// on first write and addressed by flat cell number (cz·nc + cy)·nc + cx. It
// holds every voxel that is not on the miss chain (chain.go); a voxel in
// neither home reads 0, unknown.
type brickStore struct {
	index []int32       // per cell: 0 = unallocated, else 1 + brick number; nil over maxDenseCells
	big   map[int]int32 // the same mapping for a volume over maxDenseCells
	slab  []float64     // brickVoxels values per brick, in allocation order
	// copied is the slab length the last copyFrom filled in, 0 after reset:
	// the slab grows in proportion to what was added since (see brick).
	copied int
}

// reset empties the store for a volume of cells cells (0 when the volume is
// over maxDenseCells), reusing the index and the slab.
func (s *brickStore) reset(cells int) {
	s.slab = s.slab[:0]
	s.copied = 0
	s.index = zeroed(s.index, cells)
	switch {
	case s.index != nil:
		s.big = nil
	case s.big == nil:
		s.big = make(map[int]int32)
	default:
		clear(s.big)
	}
}

// copyFrom makes s an exact copy of src, reusing s's index and slab, with
// room for a quarter more bricks when the slab has to grow.
func (s *brickStore) copyFrom(src *brickStore) {
	s.index = copied(s.index, src.index)
	s.big = maps.Clone(src.big) // nil stays nil
	if cap(s.slab) < len(src.slab) {
		s.slab = make([]float64, 0, len(src.slab)+len(src.slab)/4)
	}
	s.slab = append(s.slab[:0], src.slab...)
	s.copied = len(s.slab)
}

// slot is the store's one lookup: the brick slot of cell, 0 when the cell
// has no brick, otherwise 1 + the brick number.
func (s *brickStore) slot(cell int) int32 {
	if s.index != nil {
		return s.index[cell]
	}
	return s.big[cell]
}

// brick returns the slab offset of cell's brick, allocating a zeroed one on
// first write. A full slab grows by at least what was added since the last
// reset or copyFrom. So a map built from empty, as a golden map is, doubles
// its slab instead of growing it by append's 1.25×, which copies a multi-MB
// slab every few bricks. A forked map grows at append's pace: its copied
// bricks say nothing about how far a mission will extend them, and a
// recycled tree keeps whatever it grew.
func (s *brickStore) brick(cell int) int {
	b := s.slot(cell)
	if b == 0 {
		n := len(s.slab)
		if cap(s.slab)-n < brickVoxels {
			s.slab = slices.Grow(s.slab, n-s.copied+brickVoxels)
		}
		s.slab = s.slab[:n+brickVoxels]
		clear(s.slab[n:])
		b = int32(n/brickVoxels) + 1
		if s.index != nil {
			s.index[cell] = b
		} else {
			s.big[cell] = b
		}
	}
	return int(b-1) * brickVoxels
}

// cells returns the cells that have a brick, in ascending order.
func (s *brickStore) cells() []int {
	if s.index == nil {
		return slices.Sorted(maps.Keys(s.big))
	}
	var out []int
	for cell, b := range s.index {
		if b != 0 {
			out = append(out, cell)
		}
	}
	return out
}

// cellOf returns the flat cell number of masked key (x, y, z) in a cell grid
// of nc cells per axis.
func cellOf(nc, x, y, z int) int {
	return ((z>>brickShift)*nc+(y>>brickShift))*nc + (x >> brickShift)
}

// voxelOffset is the position of masked key (x, y, z) inside its brick.
func voxelOffset(x, y, z int) int {
	return (z&7)<<(2*brickShift) | (y&7)<<brickShift | x&7
}

// denseCells returns nc³ when a cell grid of nc cells per axis fits under
// maxDenseCells, and 0 when it does not, without overflowing.
func denseCells(nc int) int {
	if nc > 1<<7 { // (2^7)^3 = maxDenseCells
		return 0
	}
	return nc * nc * nc
}

// classCells returns the number of codes over extents nx, ny, nz, or 0
// when it exceeds maxClassCells; the product never overflows.
func classCells(nx, ny, nz int) int {
	if nx > maxClassCells || ny > maxClassCells || nz > maxClassCells {
		return 0
	}
	if c := nx * ny; c <= maxClassCells && c*nz <= maxClassCells {
		return c * nz
	}
	return 0
}

// zeroed returns s with length n and every element zero, reusing its array
// when it is large enough; n == 0 returns nil, a structure over its cap.
func zeroed[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// copied returns a copy of src, in dst's array when it is large enough; a
// nil src (a structure over its cap) stays nil.
func copied[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}
