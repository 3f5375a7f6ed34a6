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
// recycled through Reset keeps its grown slab. A scan integrated several
// times in a row goes through InsertCloudN, which walks it once.
func (t *Tree) InsertCloud(origin geom.Vec3, pts []RayPoint) {
	for i := range pts {
		t.integrateRay(origin, pts[i].End, pts[i].Hit)
	}
}

// InsertCloudN integrates one scan n times over: exactly n consecutive
// InsertCloud(origin, pts) calls, to the bit, in every voxel, summary
// count, class-grid byte and the LeafUpdates total, so every Digest agrees.
//
// A voxel's value depends only on its own updates, in order, and every
// update a voxel gets from a scan is the same clamped miss unless one of
// the scan's hit endpoints lands in it. So InsertCloudN walks the scan once,
// folding the n passes per voxel:
//   - before the walk it marks the voxels the scan's in-volume hit
//     endpoints land in;
//   - a crossing or miss endpoint in an unmarked voxel applies its n misses
//     at once, in a register, which is exactly what the full sequence
//     repeated n times leaves there;
//   - every update to a marked voxel, hit or miss, is held back in walk
//     order, and after the walk the held sequence is applied n times, which
//     gives each marked voxel its own sequence n times over.
//
// The summary counts and grid bytes depend only on each voxel's class
// before and after, so one reclassify per changed crossing leaves them as
// n passes would; Digest and the snapshot format visit bricks in cell
// order, so allocating the marked voxels' bricks first cannot show; and
// every update still adds n to LeafUpdates.
//
// BuildMapSeed's confirmation passes are the caller. n <= 0 is a no-op and
// n == 1 is InsertCloud. The marks and the held updates live in buffers
// the tree keeps, so once they have grown to the scan a call allocates
// nothing beyond the slab growth InsertCloud itself would cause.
func (t *Tree) InsertCloudN(origin geom.Vec3, pts []RayPoint, n int) {
	if n <= 0 {
		return
	}
	if n == 1 {
		t.InsertCloud(origin, pts)
		return
	}
	f := &t.fold
	f.held = f.held[:0]
	for i := range pts {
		if !pts[i].Hit {
			continue
		}
		if x, y, z, ok := t.key(pts[i].End); ok {
			f.mark(t.store.brick(t.cell(x, y, z)), voxelOffset(x, y, z))
		}
	}
	for i := range pts {
		t.foldRay(origin, pts[i].End, pts[i].Hit, n)
	}
	t.applyHeld(n)
	f.unmark()
}

// seedFold is InsertCloudN's working state: the marked voxels of the scan
// being folded and the updates held back for them. Marks are a per-brick
// flag plus a 512-bit mask per marked brick, so the walk tests a voxel with
// one load on a brick change and one bit test per crossing. Every mark is
// cleared before InsertCloudN returns; held keeps the last scan's updates
// until the next call.
type seedFold struct {
	markOf []int32      // per brick number: 0, or 1 + its index in marks
	marks  []brickMark  // the scan's marked bricks
	held   []heldUpdate // updates to marked voxels, in walk order
}

// brickMark is one marked brick: its number and its marked voxels.
type brickMark struct {
	brick int
	bits  voxelMask
}

// voxelMask holds one bit per voxel offset of a brick.
type voxelMask [brickVoxels / 64]uint64

// has reports whether voxel offset vo is set; a nil mask has none set.
func (m *voxelMask) has(vo int) bool { return m != nil && m[vo>>6]>>(vo&63)&1 != 0 }

// heldUpdate is one update to a marked voxel: its masked key and whether it
// is hit or miss evidence.
type heldUpdate struct {
	x, y, z int32 // masked keys are below 2^maxDepth
	hit     bool
}

// mark marks voxel offset vo of the brick at slab offset base.
func (f *seedFold) mark(base, vo int) {
	b := base / brickVoxels
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

// bitsOf returns the marks of the brick at slab offset base, nil when it
// has none.
func (f *seedFold) bitsOf(base int) *voxelMask {
	if b := base / brickVoxels; b < len(f.markOf) && f.markOf[b] != 0 {
		return &f.marks[f.markOf[b]-1].bits
	}
	return nil
}

// unmark clears every mark, leaving markOf all zero for the next scan.
func (f *seedFold) unmark() {
	for _, m := range f.marks {
		f.markOf[m.brick] = 0
	}
	f.marks = f.marks[:0]
}

// foldRay is integrateRay for InsertCloudN: the same walk and endpoint,
// with n misses folded into every unmarked voxel and every update to a
// marked voxel held back.
func (t *Tree) foldRay(origin, end geom.Vec3, hit bool, n int) {
	ex, ey, ez, endOK := t.key(end)
	var w rayWalker
	t.startWalk(&w, origin, end)
	if w.valid {
		t.foldCarve(&w, ex, ey, ez, endOK, n)
	}
	if !endOK {
		return
	}
	base := t.store.brick(t.cell(ex, ey, ez))
	vo := voxelOffset(ex, ey, ez)
	if hit || t.fold.bitsOf(base).has(vo) {
		t.fold.held = append(t.fold.held, heldUpdate{int32(ex), int32(ey), int32(ez), hit})
		return
	}
	t.missN(t.store.slab, base+vo, ex, ey, ez, n)
	t.leafUpdates += n
}

// missN applies n clamped misses at once to the voxel at offset off of
// slab, masked key (x, y, z), stopping at a fixed point, where every
// further miss would leave it as it is.
func (t *Tree) missN(slab []float64, off, x, y, z, n int) {
	old := slab[off]
	lo := old
	for ; n > 0; n-- {
		next := geom.Clampf(lo+t.params.LogOddsMiss, t.params.ClampMin, t.params.ClampMax)
		if next == lo {
			break
		}
		lo = next
	}
	if lo != old {
		slab[off] = lo
		if from, to := t.classOf(old), t.classOf(lo); from != to {
			t.reclassify(x, y, z, from, to)
		}
	}
}

// foldCarve is carve for InsertCloudN: the same DDA loop over the same
// voxels, where a crossing of an unmarked voxel applies n misses at once
// and a crossing of a marked one is held back. It is a loop of its own
// because missions run carve once per scan and pay for every branch in it.
func (t *Tree) foldCarve(w *rayWalker, ex, ey, ez int, endOK bool, n int) {
	f := &t.fold
	mask := t.keyMask
	slab := t.store.slab
	base := -1          // slab offset of the current brick; -1 before the first
	var bits *voxelMask // the current brick's marks, nil when it has none
	var bx, by, bz int  // a masked key inside the current brick
	x, y, z := w.x, w.y, w.z
	tMaxX, tMaxY, tMaxZ := w.tMaxX, w.tMaxY, w.tMaxZ
	folded := 0 // crossings of unmarked voxels
	for steps := 0; steps < w.maxSteps; steps++ {
		if !endOK || x != ex || y != ey || z != ez {
			mx, my, mz := x&mask, y&mask, z&mask
			if base < 0 || ((mx^bx)|(my^by)|(mz^bz))>>brickShift != 0 {
				base = t.store.brick(t.cell(mx, my, mz))
				slab = t.store.slab
				bits = f.bitsOf(base)
				bx, by, bz = mx, my, mz
			}
			vo := voxelOffset(mx, my, mz)
			if bits.has(vo) {
				f.held = append(f.held, heldUpdate{int32(mx), int32(my), int32(mz), false})
			} else {
				t.missN(slab, base+vo, mx, my, mz, n)
				folded++
			}
		}
		if x == w.ex && y == w.ey && z == w.ez {
			break // end voxel reached, walk exhausted
		}
		switch {
		case tMaxX <= tMaxY && tMaxX <= tMaxZ:
			x += w.stepX
			tMaxX += w.tDeltaX
		case tMaxY <= tMaxZ:
			y += w.stepY
			tMaxY += w.tDeltaY
		default:
			z += w.stepZ
			tMaxZ += w.tDeltaZ
		}
	}
	t.leafUpdates += n * folded
}

// applyHeld applies the held updates n times over, in order, so each
// marked voxel receives its own update sequence n times.
func (t *Tree) applyHeld(n int) {
	hit, miss := t.params.LogOddsHit, t.params.LogOddsMiss
	for pass := 0; pass < n; pass++ {
		for _, u := range t.fold.held {
			delta := miss
			if u.hit {
				delta = hit
			}
			t.updateKey(int(u.x), int(u.y), int(u.z), delta)
		}
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
