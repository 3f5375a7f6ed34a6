package octomap

import (
	"slices"

	"mavfi/internal/geom"
)

// The miss chain. Almost every carve step of a mission lands on a voxel
// inside the world bounds whose whole history is misses, and such a voxel's
// log-odds depends on one number only: how many clamped misses it has
// taken. The chain lists those values: chain[0] = 0 (unknown) and
// chain[k+1] = Clampf(chain[k]+LogOddsMiss, ClampMin, ClampMax), up to its
// fixed point chain[K] (ClampMin under the default model, where K = 5).
//
// Each voxel of the bounds has one byte in codes, and it is the one home of
// the voxel's state:
//
//   - code k <= K: the voxel is on the chain and its value is chain[k], so
//     its class is Unknown at k = 0 and Free after. A miss sets the code to
//     min(k+n, K), one byte store with no brick and no float arithmetic.
//   - brickUnknown, brickFree or brickOccupied: the value is in the voxel's
//     brick and the code carries its class. The first update of a chain
//     voxel that is not a miss moves it there (toBrick), and it never
//     returns; every write that changes its class rewrites the code
//     (reclassify).
//
// K is at most 252, below the three brick codes. The brick slot of a chain
// voxel holds 0 and is never read. Voxels outside the bounds live in bricks
// only and are classified from them, as is every voxel of a tree over
// maxClassCells: its codes are nil. A tree whose params have no usable
// chain (see missChain) keeps its codes as a class store: every voxel
// starts at brickUnknown.
//
// No reader can tell the homes apart. lookup reads the code first; the
// summary is written as before (no chain value is Occupied, so a chain step
// never moves a summary count); and eachCell visits exactly the cells a
// brick-only store would hold bricks for, since every write either sets a
// non-zero chain code or allocates the brick. So every value and every
// Digest is what the brick-only store produced.

// The brick codes: a voxel whose value lives in its brick, with its class,
// brickUnknown + Occupancy.
const (
	brickUnknown  = 253
	brickFree     = brickUnknown + uint8(Free)
	brickOccupied = brickUnknown + uint8(Occupied)
)

// brickCode returns the code of a voxel in its brick whose class is o.
func brickCode(o Occupancy) uint8 { return brickUnknown + uint8(o) }

// codeClass decodes a code to its voxel's class: chain step 0 is Unknown,
// every later step Free, and a brick code carries its class.
var codeClass = func() (c [256]uint8) {
	for k := 1; k < brickUnknown; k++ {
		c[k] = uint8(Free)
	}
	c[brickFree], c[brickOccupied] = uint8(Free), uint8(Occupied)
	return c
}()

// missChain returns the miss chain of p, reusing buf's array, or nil when
// the tree must run without it: when the first miss is a fixed point
// already (K = 0), when the chain needs more than brickUnknown-1 steps to
// reach its fixed point, or when a value after 0 would not classify Free
// (chain codes decode to Free and leave the summary untouched; that holds
// whenever LogOddsMiss < 0 <= OccThresh, as in the default model).
func missChain(buf []float64, p Params) []float64 {
	chain := append(buf[:0], 0)
	for len(chain) <= brickUnknown {
		lo := chain[len(chain)-1]
		next := geom.Clampf(lo+p.LogOddsMiss, p.ClampMin, p.ClampMax)
		if next == lo {
			if len(chain) == 1 {
				return nil
			}
			return chain
		}
		if next == 0 || next >= p.OccThresh { // not Free; see classOf
			return nil
		}
		chain = append(chain, next)
	}
	return nil
}

// onChain returns the codes index of masked key (x, y, z) and whether the
// voxel lives on the miss chain.
func (t *Tree) onChain(x, y, z int) (int, bool) {
	if t.codes == nil || x >= t.nx || y >= t.ny || z >= t.nz {
		return 0, false
	}
	i := (z*t.ny+y)*t.nx + x
	return i, t.codes[i] < brickUnknown
}

// toBrick returns the slab offset of the voxel at masked key (x, y, z),
// allocating its brick, and moves the voxel's value there first when it
// lives on the miss chain: the one way a voxel leaves the chain. The value
// and the class do not change.
func (t *Tree) toBrick(x, y, z int) int {
	off := t.store.brick(t.cell(x, y, z)) + voxelOffset(x, y, z)
	if i, ok := t.onChain(x, y, z); ok {
		c := t.codes[i]
		t.store.slab[off] = t.chain[c]
		t.codes[i] = brickCode(Occupancy(codeClass[c]))
	}
	return off
}

// eachCell is the map's all-values iterator. It calls fn, in ascending cell
// order, for every cell that has a brick or a non-zero code, with the
// cell's 512 log-odds in brick order, each read from the home that holds
// its voxel. Those are exactly the cells a brick-only store allocates (see
// the chain notes above), so Digest, which is built on it, is independent
// of both the homes and the order bricks were allocated in. vals is reused
// between calls.
func eachCell(g geometry, p Params, s *brickStore, codes []uint8, fn func(cell int, vals *[brickVoxels]float64)) {
	nc := g.cellsPerAxis()
	cells := s.cells()
	chain := missChain(nil, p)
	if chain == nil {
		codes = nil // brick codes only: every value is in its brick
	}
	if codes != nil {
		// Cells of the bounds holding a non-zero code (a brick code's cell
		// has its brick already), over the box of cells the bounds span, in
		// ascending cell order.
		const edge = 1 << brickShift
		bx, by, bz := (g.nx+edge-1)/edge, (g.ny+edge-1)/edge, (g.nz+edge-1)/edge
		coded := make([]bool, bx*by*bz)
		for z := range g.nz {
			for y := range g.ny {
				for x, c := range codes[(z*g.ny+y)*g.nx:][:g.nx] {
					if c != 0 {
						coded[((z/edge)*by+y/edge)*bx+x/edge] = true
					}
				}
			}
		}
		for cz := range bz {
			for cy := range by {
				for cx := range bx {
					if coded[(cz*by+cy)*bx+cx] {
						cells = append(cells, (cz*nc+cy)*nc+cx)
					}
				}
			}
		}
		slices.Sort(cells)
		cells = slices.Compact(cells)
	}
	var vals [brickVoxels]float64
	for _, cell := range cells {
		if b := s.slot(cell); b != 0 {
			copy(vals[:], s.slab[int(b-1)*brickVoxels:])
		} else {
			vals = [brickVoxels]float64{}
		}
		if codes != nil {
			cx, cy, cz := cell%nc<<brickShift, cell/nc%nc<<brickShift, cell/nc/nc<<brickShift
			for z := cz; z < min(cz+8, g.nz); z++ {
				for y := cy; y < min(cy+8, g.ny); y++ {
					for x := cx; x < min(cx+8, g.nx); x++ {
						if c := codes[(z*g.ny+y)*g.nx+x]; c < brickUnknown {
							vals[voxelOffset(x, y, z)] = chain[c]
						}
					}
				}
			}
		}
		fn(cell, &vals)
	}
}

// eachCell runs the all-values iterator over the tree's map.
func (t *Tree) eachCell(fn func(cell int, vals *[brickVoxels]float64)) {
	eachCell(t.geometry, t.params, &t.store, t.codes, fn)
}
