package octomap

// occSummary is the hierarchical occupancy summary behind the collision
// probes: one uint16 per 8³ cell of leaf keys counting how many voxels
// inside the cell currently classify as Occupied. Under a policy where only
// Occupied blocks the vehicle (UnknownIsFree, the pipeline's optimistic
// navigation policy), a zero count proves every voxel in the cell
// unblocked, and the queries use that two ways (fusedwalk.go): SegmentFree's
// bundle prescan (bundleAllFree) answers a whole query without walking when
// every cell its seven walks could classify in holds a zero count, and
// FirstBlocked's walks step over every zero-count cell that does not hold
// their end voxel without classifying it (blockExit). The elided probes
// could not have changed the answer, so results are bit-identical to the
// per-ray reference in every regime.
//
// Exactness, not invalidation: the counts are maintained by reclassify on
// every occupied↔free/unknown voxel transition, in the same write that
// changes the voxel, so the summary is exact after every mutation and there
// is no epoch to invalidate. TestOccSummaryMatchesRecount pins the counts
// against a brute-force reclassification under interleaved insertion,
// marking, and querying.
//
// The cells are the brick cells (see brickShift), indexed by the same flat
// cell number, and the summary shares the brick index's cap: a volume over
// maxDenseCells runs without it. Keys are masked before they are counted,
// so a count moves with the voxel an aliased overshoot update actually
// reached (see Tree).
type occSummary struct {
	counts []uint16 // Occupied voxels per cell; nil over maxDenseCells
}
