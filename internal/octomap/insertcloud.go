package octomap

import (
	"math"

	"mavfi/internal/geom"
)

// RayPoint is one depth-scan return fed to InsertCloud: the world-frame
// endpoint of a sensor ray and whether the ray actually hit a surface (a
// false Hit means the ray ran to max range and carves free space only).
type RayPoint struct {
	End geom.Vec3
	Hit bool
}

// InsertCloud integrates one whole depth scan sharing a single sensor
// origin. It is exactly equivalent to calling InsertRay once per point in
// slice order — the same integrateRay evidence schedule runs for every ray,
// so the two paths cannot drift apart — and the equivalence tests pin the
// resulting log-odds bit-for-bit.
//
// History: PR 2 implemented this call with a per-voxel grouping layer (walk
// all rays once, group hit/miss evidence per unique voxel, one octree descent
// per unique voxel). PR 2's memoised descent caches then made single descents
// so cheap that the grouping bookkeeping became pure overhead (~15% of
// mission time), so PR 3 collapsed it back to the straight per-ray loop —
// keeping this API as the mission-path batching boundary. PR 12 fused each
// ray's per-voxel call chain into one loop, carve, and PR 13 replaced the
// octree under it with the brick store, where an update is one or two array
// loads; the bytes never changed, and an independent map oracle in the
// package tests pins them. Steady-state calls allocate nothing beyond
// amortised brick-slab growth when the scan observes new space, and a tree
// recycled through Reset keeps its grown slab.
func (t *Tree) InsertCloud(origin geom.Vec3, pts []RayPoint) {
	for i := range pts {
		t.integrateRay(origin, pts[i].End, pts[i].Hit)
	}
}

// InsertCloudApprox is InsertCloud with the two opt-in approximate-mode
// levers, composable independently:
//
// Near-field subsampling (stride > 1): every ray still lands its endpoint
// evidence (hits are never dropped), but only every stride-th ray carves
// the free-space segment within nearRadius of the origin — the other rays
// start their carve at the near-field boundary, and rays that end inside
// it contribute endpoint evidence only. Rays within a scan share the
// near-origin cone, so the skipped carving is largely evidence the kept
// rays (and the next scans) re-deliver.
//
// Saturated-evidence memoization (memo): a ray whose endpoint voxel is
// already clamped in the direction of the ray's own evidence — a hit into
// a voxel at the upper log-odds clamp, a free endpoint at the lower clamp —
// is skipped entirely, one brick lookup instead of a full carve. On a
// map forked from a converged golden seed nearly every ray into already-
// mapped space qualifies, which is what makes cross-mission memoization
// pay: the fork carries the prior campaign evidence, and re-confirming it
// would be clamped to a no-op at the endpoint anyway. A ray that sees
// anything new — an unknown endpoint, or evidence disagreeing with the
// clamp (an intruder appearing in known-free space, a mapped wall gone) —
// never satisfies the skip test and integrates in full, so novelty always
// lands. The cost is the same free-space staleness the stride lever trades
// on: intermediate voxels of a skipped ray are not re-carved. The fidelity
// study quantifies what each lever actually costs per setting.
//
// stride <= 1 with memo off is exactly InsertCloud (the same per-ray loop,
// bit-for-bit), which is what lets the pipeline call this unconditionally.
func (t *Tree) InsertCloudApprox(origin geom.Vec3, pts []RayPoint, nearRadius float64, stride int, memo bool) {
	if stride <= 1 && !memo {
		t.InsertCloud(origin, pts)
		return
	}
	nearSq := nearRadius * nearRadius
	for i := range pts {
		if memo && t.endpointSaturated(pts[i]) {
			continue
		}
		if stride <= 1 || i%stride == 0 {
			t.integrateRay(origin, pts[i].End, pts[i].Hit)
			continue
		}
		d := pts[i].End.Sub(origin)
		lsq := d.LenSq()
		if lsq <= nearSq {
			// The whole ray is near-field: endpoint evidence only.
			if ex, ey, ez, ok := t.key(pts[i].End); ok {
				if pts[i].Hit {
					t.updateKey(ex, ey, ez, t.params.LogOddsHit)
				} else {
					t.updateKey(ex, ey, ez, t.params.LogOddsMiss)
				}
			}
			continue
		}
		start := origin.Add(d.Scale(nearRadius / math.Sqrt(lsq)))
		t.integrateRay(start, pts[i].End, pts[i].Hit)
	}
}

// endpointSaturated reports whether p's evidence is already clamped in the
// direction the ray would push it, making the whole ray a candidate for
// memo skipping. Out-of-bounds and unknown endpoints are never saturated.
func (t *Tree) endpointSaturated(p RayPoint) bool {
	x, y, z, ok := t.key(p.End)
	if !ok {
		return false
	}
	lo, known := t.lookup(x, y, z)
	if !known {
		return false
	}
	if p.Hit {
		return lo >= t.params.ClampMax
	}
	return lo <= t.params.ClampMin
}
