package octomap

// occSummary is the hierarchical occupancy summary behind the collision
// probes: one uint64 per 8³ cell of leaf keys whose byte k counts how many
// voxels of the cell's local z-layer k (key z&7 == k, an 8×8 slab) currently
// classify as Occupied. A byte never exceeds 64, so the eight share one word
// without carries, and the cell's total is the bytes' sum (occTotal). Under a
// policy where only Occupied blocks the vehicle (UnknownIsFree, the
// pipeline's optimistic navigation policy), a zero byte proves every voxel
// of its slab unblocked, and the queries use that two ways (fusedwalk.go):
// SegmentFree's bundle prescan (bundleAllFree) answers a whole query without
// walking when every (cell, layer) its seven walks could classify in holds
// zero, and FirstBlocked's walks step over every cell that does not hold
// their end voxel and whose layers they cross hold zero, without classifying
// its voxels (blockExit). The elided probes could not have changed the
// answer, so results are bit-identical to the per-ray reference in every
// regime.
//
// The layers matter because the ground is mapped: the solid floor at key
// z = 0 is Occupied in every cell of the bottom cell layer, which spans the
// first 4 m at the 0.5 m default and so holds the cruise band. A whole-cell
// count is non-zero in every cell there; the layer bytes above the floor are
// zero wherever the air is.
//
// Exactness, not invalidation: the words are maintained by reclassify on
// every occupied↔free/unknown voxel transition, in the same write that
// changes the voxel, so the summary is exact after every mutation and there
// is no epoch to invalidate. TestOccSummaryMatchesRecount pins every layer
// byte against a brute-force reclassification under interleaved insertion,
// folding, forking, marking and querying.
//
// The cells are the brick cells (see brickShift), indexed by the same flat
// cell number, and the summary shares the brick index's cap: a volume over
// maxDenseCells runs without it. Cell numbers run z-major, so the words
// cover a prefix of them: the cells whose keys reach into the world bounds'
// z extent (summaryCells). The key cube is as tall as the world is wide, so
// most of its cells lie above the bounds, where no obstacle stands and a
// voxel is Occupied only by a corrupted hit; one count, above, holds their
// Occupied voxels, and word reads a cell there as empty while it is zero
// and as full in every layer otherwise. Keys are masked before they are counted, so a
// word moves with the voxel an aliased overshoot update actually reached
// (see Tree).
type occSummary struct {
	layers []uint64 // per cell of the prefix, eight per-layer Occupied counts; nil over maxDenseCells
	above  int      // Occupied voxels in the cells past the prefix
}

// summaryCells returns the cells the words cover in a key cube of nc cells
// per axis whose bounds are nz keys tall: every z-layer of cells that holds
// a key below nz, or 0 over maxDenseCells.
func summaryCells(nc, nz int) int {
	if denseCells(nc) == 0 {
		return 0
	}
	return ((nz + 1<<brickShift - 1) >> brickShift) * nc * nc
}

// word returns the word of cell c: its own inside the prefix, and past it
// 0 while no voxel there is Occupied, every layer's bits otherwise.
func (s *occSummary) word(c int) uint64 {
	if c < len(s.layers) {
		return s.layers[c]
	}
	if s.above == 0 {
		return 0
	}
	return ^uint64(0)
}

// count records that a voxel of cell c at masked key z became Occupied
// (occupied) or stopped being Occupied.
func (s *occSummary) count(c, z int, occupied bool) {
	switch {
	case c >= len(s.layers):
		if occupied {
			s.above++
		} else {
			s.above--
		}
	case occupied:
		s.layers[c] += layerUnit(z)
	default:
		s.layers[c] -= layerUnit(z)
	}
}

// copyFrom makes s a copy of src, reusing s's words.
func (s *occSummary) copyFrom(src *occSummary) {
	s.layers = copied(s.layers, src.layers)
	s.above = src.above
}

// eachTotal calls fn with the Occupied total of every cell of the dense
// cell grid of nc cells per axis, in cell order, or with nothing when the
// summary is off. A cell past the prefix holds no chain voxel (it lies
// above the bounds), so while above is non-zero its total is counted
// from its brick in st, classified under p.
func (s *occSummary) eachTotal(nc int, st *brickStore, p Params, fn func(uint16)) {
	if s.layers == nil {
		return
	}
	for c := range denseCells(nc) {
		var n uint16
		switch {
		case c < len(s.layers):
			n = occTotal(s.layers[c])
		case s.above != 0:
			if b := st.slot(c); b != 0 {
				for _, v := range st.slab[int(b-1)*brickVoxels : int(b)*brickVoxels] {
					if v != 0 && v >= p.OccThresh {
						n++
					}
				}
			}
		}
		fn(n)
	}
}

// layerUnit is what one Occupied voxel at key z adds to its cell's word.
func layerUnit(z int) uint64 { return 1 << (8 * (z & 7)) }

// layerMask selects the bytes of local z-layers lo through hi, 0 ≤ lo ≤ hi ≤ 7.
func layerMask(lo, hi int) uint64 {
	return ^uint64(0) >> (8 * (7 - hi)) &^ (1<<(8*lo) - 1)
}

// occTotal returns the Occupied voxels a cell word counts in all: its eight
// bytes summed pairwise into four 16-bit lanes (each at most 128), then
// across the lanes into the top one (at most 512), with no carry between
// lanes on either step.
func occTotal(w uint64) uint16 {
	w = w&0x00ff00ff00ff00ff + w>>8&0x00ff00ff00ff00ff
	return uint16(w * 0x0001000100010001 >> 48)
}
