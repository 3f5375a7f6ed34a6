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
// origin: for each point in slice order, miss evidence along the ray from
// origin to the point, endpoint voxel excluded, then hit or miss evidence at
// the endpoint voxel. Rays are walked with the Amanatides–Woo
// voxel-stepping algorithm, clipped to the root volume; the endpoint voxel
// is identified from the endpoint itself (not the clipped walk), so a
// surface point landing exactly on a voxel boundary attributes its hit
// evidence to the voxel containing the surface.
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
// recycled through Reset keeps its grown slab. A scan integrated several
// times in a row goes through InsertCloudN, which walks it once.
func (t *Tree) InsertCloud(origin geom.Vec3, pts []RayPoint) {
	t.InsertCloudN(origin, pts, 1)
}

// InsertCloudN integrates one scan n times over: exactly n consecutive
// InsertCloud(origin, pts) calls, to the bit, in every voxel, summary
// layer byte, code and the LeafUpdates total, so every Digest agrees.
//
// A voxel's value depends only on its own updates, in order, and every
// update a voxel gets from a scan is the same clamped miss unless one of
// the scan's hit endpoints lands in it. So InsertCloudN walks the scan once,
// with the same carve InsertCloud runs, applying n passes per voxel:
//   - before the walk it moves the voxels the scan's in-volume hit endpoints
//     land in to their bricks, values unchanged, and marks them;
//   - a crossing or miss endpoint in an unmarked voxel applies its n misses
//     at once, which is exactly what the full sequence repeated n times
//     leaves there: a chain voxel steps n along the chain, a brick voxel
//     takes n clamped misses;
//   - every update to a marked voxel, hit or miss, is held back in walk
//     order, and after the walk the held sequence is applied n times, which
//     gives each marked voxel its own sequence n times over.
//
// The summary words and brick codes depend only on each voxel's class
// before and after, so one reclassify per changed crossing leaves them as
// n passes would, and a marked voxel ends in its brick as its first hit
// would leave it; Digest visits cells in cell order, and a marked voxel's
// brick is one its hit would allocate, so moving the marked voxels first
// cannot show; and every update still adds n to LeafUpdates.
//
// BuildMapSeed's confirmation passes are the caller. n <= 0 is a no-op and
// n == 1 marks nothing: it is InsertCloud. The marks and the held updates
// live in buffers the tree keeps, so once they have grown to the scan a
// call allocates nothing beyond the slab growth InsertCloud itself would
// cause.
func (t *Tree) InsertCloudN(origin geom.Vec3, pts []RayPoint, n int) {
	if n <= 0 {
		return
	}
	t.gen++
	f := &t.fold
	f.held = f.held[:0]
	if n > 1 {
		for i := range pts {
			if !pts[i].Hit {
				continue
			}
			if x, y, z, ok := t.key(pts[i].End); ok {
				f.mark(t.toBrick(x, y, z))
			}
		}
	}
	for i := range pts {
		t.integrateRay(origin, pts[i].End, pts[i].Hit, n)
	}
	f.unmark()
	for range n {
		for _, u := range f.held {
			t.updateKey(int(u.x), int(u.y), int(u.z), u.hit, 1)
		}
	}
}

// seedFold is InsertCloudN's working state: the marked voxels of the scan
// being folded and the updates held back for them. Marks are a per-brick
// flag plus a 512-bit mask per marked brick, so testing a voxel costs a
// brick lookup and a bit test, and only updateKey tests: every marked voxel
// lives in its brick, off carve's fast path. Every mark is cleared before
// the held updates are applied; held keeps the last scan's updates until
// the next call.
type seedFold struct {
	markOf []int32      // per brick number: 0, or 1 + its index in marks
	marks  []brickMark  // the scan's marked bricks
	held   []heldUpdate // updates to marked voxels, in walk order
}

// brickMark is one marked brick: its number and its marked voxels.
type brickMark struct {
	brick int
	bits  [brickVoxels / 64]uint64 // one bit per voxel offset
}

// heldUpdate is one update to a marked voxel: its masked key and whether it
// is hit or miss evidence.
type heldUpdate struct {
	x, y, z int32 // masked keys are below 2^maxDepth
	hit     bool
}

// mark marks the voxel at slab offset off.
func (f *seedFold) mark(off int) {
	b, vo := off/brickVoxels, off%brickVoxels
	if b >= len(f.markOf) {
		f.markOf = append(f.markOf, make([]int32, b+1-len(f.markOf))...)
	}
	m := f.markOf[b]
	if m == 0 {
		f.marks = append(f.marks, brickMark{brick: b})
		m = int32(len(f.marks))
		f.markOf[b] = m
	}
	f.marks[m-1].bits[vo>>6] |= 1 << (vo & 63)
}

// marked reports whether the voxel at masked key (x, y, z) is marked.
func (t *Tree) marked(x, y, z int) bool {
	f := &t.fold
	if len(f.marks) == 0 {
		return false
	}
	b := int(t.store.slot(t.cell(x, y, z))) - 1
	if b < 0 || b >= len(f.markOf) || f.markOf[b] == 0 {
		return false
	}
	vo := voxelOffset(x, y, z)
	return f.marks[f.markOf[b]-1].bits[vo>>6]>>(vo&63)&1 != 0
}

// unmark clears every mark, leaving markOf all zero for the next scan.
func (f *seedFold) unmark() {
	for _, m := range f.marks {
		f.markOf[m.brick] = 0
	}
	f.marks = f.marks[:0]
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
// is skipped entirely, one lookup instead of a full carve. On a
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
	t.gen++
	nearSq := nearRadius * nearRadius
	for i := range pts {
		if memo && t.endpointSaturated(pts[i]) {
			continue
		}
		if stride <= 1 || i%stride == 0 {
			t.integrateRay(origin, pts[i].End, pts[i].Hit, 1)
			continue
		}
		d := pts[i].End.Sub(origin)
		lsq := d.LenSq()
		if lsq <= nearSq {
			// The whole ray is near-field: endpoint evidence only.
			if ex, ey, ez, ok := t.key(pts[i].End); ok {
				t.updateKey(ex, ey, ez, pts[i].Hit, 1)
			}
			continue
		}
		start := origin.Add(d.Scale(nearRadius / math.Sqrt(lsq)))
		t.integrateRay(start, pts[i].End, pts[i].Hit, 1)
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
