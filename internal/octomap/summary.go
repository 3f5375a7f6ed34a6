package octomap

// occSummary is the hierarchical occupancy summary behind the PR 5 collision
// probes: one uint16 per 8³ cell of leaf keys counting how many voxels
// inside the cell currently classify as Occupied. The collision queries
// consult it through the bundle prescan (bundleAllFree in fusedwalk.go):
// when every cell the seven probe walks could classify in holds a zero
// count, the query is answered without walking — under a policy where only
// Occupied blocks the vehicle (UnknownIsFree, the pipeline's optimistic
// navigation policy), a zero count proves every voxel in the cell
// unblocked, so the elided probes could not have changed the answer. When
// any cell in range is occupied, the walks run with no summary overhead at
// all, so results are bit-identical to the per-ray reference in both
// regimes.
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
