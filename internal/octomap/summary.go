package octomap

// occSummary is the hierarchical occupancy summary behind the PR 5 collision
// probes: one uint16 per 8³ block of leaf keys counting how many unit-depth
// leaves inside the block currently classify as Occupied. The collision
// queries consult it through the bundle prescan (bundleAllFree in
// fusedwalk.go): when every block the seven probe walks could classify in
// holds a zero count, the query is answered without walking — under a policy
// where only Occupied blocks the vehicle (UnknownIsFree, the pipeline's
// optimistic navigation policy), a zero count proves every voxel in the
// block unblocked, so the elided probes could not have changed the answer.
// When any block in range is occupied, the walks run with no summary
// overhead at all, so results are bit-identical to the per-ray reference in
// both regimes.
//
// Exactness, not invalidation: the counts are maintained incrementally by
// applyDelta on every occupied↔free/unknown leaf transition — the same call
// that bumps the tree mutation counter — so the summary is exact after every
// mutation and there is no epoch to invalidate. The other mutation source,
// descend's expand, copies a parent's log-odds into its eight children;
// evidence is only ever applied at unit depth (descend always descends to
// level 0), so an expanded node's log-odds is exactly 0 (unknown) and the
// expansion cannot change any block's occupied count. TestOccSummaryMatchesRecount
// pins the counts against a brute-force reclassification under interleaved
// insertion, marking, and querying.
//
// Aliasing: the defensive walker-overshoot budget (see rayFree) means the
// insertion path can, in a degenerate-axis case, hand descend a key one or
// two steps outside [0, maxKey). descend addresses nodes by the low depth
// bits only, so such an update lands on the leaf at key&(maxKey-1) per axis;
// summaryIndex masks the same way so the count moves with the leaf the
// evidence actually reached.
type occSummary struct {
	counts []uint16 // occupied unit leaves per block; nil when over the cap
	nb     int      // blocks per axis: (maxKey + 7) >> summaryBlockShift
}

// summaryBlockShift sets the summary block edge: 8 leaf voxels (4 m at the
// 0.5 m default resolution).
const summaryBlockShift = 3

// maxSummaryBlocks caps the summary footprint (2 bytes per block, 4 MiB at
// the cap). A volume over the cap runs without the summary, exactly as the
// classification cache degrades over its own cap.
const maxSummaryBlocks = 1 << 21

// initSummary sizes the summary for the tree's key cube and zeroes it,
// reusing the existing slab when it is large enough (Reset recycles trees
// through here).
func (t *Tree) initSummary() {
	nb := max((t.maxKey+7)>>summaryBlockShift, 1)
	t.sum.nb = nb
	switch blocks := nb * nb * nb; {
	case blocks > maxSummaryBlocks:
		t.sum.counts = nil
	case cap(t.sum.counts) >= blocks:
		t.sum.counts = t.sum.counts[:blocks]
		clear(t.sum.counts)
	default:
		t.sum.counts = make([]uint16, blocks)
	}
}

// summaryIndex returns the flat block index of leaf key (x, y, z), masking
// each axis to the key cube first (see the aliasing note on occSummary).
func (t *Tree) summaryIndex(x, y, z int) int {
	bx := (x & t.keyMask) >> summaryBlockShift
	by := (y & t.keyMask) >> summaryBlockShift
	bz := (z & t.keyMask) >> summaryBlockShift
	return (bz*t.sum.nb+by)*t.sum.nb + bx
}
