package octomap

import (
	"math"

	"mavfi/internal/geom"
)

// This file implements the PR 5 fused 7-ray walker behind SegmentFree and
// FirstBlocked. A collision query probes the centre segment a→b plus six
// offset segments (a+o)→(b+o) with axis-aligned offsets o (see probeOffsets):
// all seven rays share one direction, and an axis-aligned offset perturbs
// exactly one coordinate of both endpoints. Every quantity the per-ray DDA
// setup derives — endpoint keys, in-volume checks, the nudged clip points,
// and the initAxis stepping state — is computed axis-by-axis from that one
// coordinate, so an offset ray shares two of its three axis states with the
// centre ray bit-for-bit and needs exactly one axis recomputed. The fused
// walker therefore initialises the direction once (three initAxis calls for
// the centre ray) and derives each offset ray by swapping in a single fresh
// axis (one more initAxis each): 9 axis initialisations replacing the 21 the
// per-ray walks performed, and one third of the endpoint keying.
//
// Bit-identity is structural, not approximate: for the two shared axes the
// sequential walk computes a.Y + 0 (adding the zero offset component), which
// IEEE-754 guarantees returns a.Y for every value except -0.0 — and for -0.0
// the +0.0 it returns is indistinguishable downstream (key comparison,
// truncation, and the DDA arithmetic never branch on the sign of zero). The
// recomputed axis runs the exact expression sequence of the sequential path
// (same nudges, same division order), and the walk loops below step the DDA
// exactly as the per-ray references do (rayFree and rayFirstBlocked, kept in
// the tests). The rays are walked strictly in the sequential order — centre
// first, then offsets in probeOffsets order, early exit on the first blocked
// ray — so every result bit and FirstBlocked's earliest-crossing fraction
// are identical to the per-ray reference (pinned by the fused-vs-sequential
// equivalence suite in fusedwalk_test.go, probe sequences included).
//
// On top of the fusion sits the occupancy summary (occSummary), used two
// ways, both only under a policy that blocks on nothing but Occupied voxels
// (summaryView), where an 8×8 z-layer slab of a block whose layer byte is
// zero cannot block:
//   - SegmentFree's prescan (bundleAllFree): before walking anything, the
//     query checks whether every (block, layer) slab any of the seven walks
//     could possibly classify holds zero Occupied leaves. When it does (the
//     common case for a planner edge in open space, the mapped ground a few
//     layers below it included) the whole query answers without stepping a
//     single voxel. When it fails, the walks run voxel-for-voxel identical
//     to the per-ray reference with no summary overhead in the loop.
//   - FirstBlocked's block skip (firstBlockedWalk, blockExit): a look-ahead
//     ray reaches far past anything a prescan could clear, so each walk
//     steps over every block it meets that does not hold its end voxel and
//     whose layers it crosses there hold zero, without classifying its
//     voxels, and resumes in the exact state the step-by-step walk holds
//     past it.
// Either way every probe the summary elides lies in a zero slab.

// rayAxis is the single-axis slice of one probe ray's endpoint checks and
// DDA setup: everything the per-ray references (rayFree, rayFirstBlocked)
// derive from one coordinate of (a, b). Combining three of these
// reproduces the sequential per-ray setup bit-for-bit.
type rayAxis struct {
	ak         int  // start-endpoint key component (valid when aIn)
	aIn, bIn   bool // endpoint coordinates inside the root slab on this axis
	eq         bool // endpoint coordinates equal on this axis
	x, ex      int  // clipped-walk start/end key components (valid when *In)
	p0In, p1In bool // nudged clip points inside the root slab on this axis
	step       int
	tMax       float64
	tDelta     float64
}

// fillRayAxis computes into ax the axis state for endpoint coordinates
// (av, bv) on the axis whose root-cube origin coordinate is originv (filled
// in place: the struct is larger than the return registers and these run
// nine times per query). The arithmetic is the exact per-axis expression
// sequence of rayFree + seedWalk(0, 1): the same range checks key()
// performs, the same 1e-9 inward nudges, and the same initAxis call, so
// three combined axis states are bit-identical to the sequential setup.
func (t *Tree) fillRayAxis(ax *rayAxis, av, bv, originv float64) {
	relA := av - originv
	ax.aIn = relA >= 0 && relA < t.rootSize
	if ax.aIn {
		ax.ak = t.keyComp(relA)
	}
	relB := bv - originv
	ax.bIn = relB >= 0 && relB < t.rootSize
	ax.eq = av == bv
	t0, t1 := 0.0, 1.0 // typed values: IEEE semantics, exactly as seedWalk computes
	d := bv - av
	p0 := av + d*(t0+1e-9)
	p1 := av + d*(t1-1e-9)
	relP0 := p0 - originv
	ax.p0In = relP0 >= 0 && relP0 < t.rootSize
	if ax.p0In {
		ax.x = t.keyComp(relP0)
	}
	relP1 := p1 - originv
	ax.p1In = relP1 >= 0 && relP1 < t.rootSize
	if ax.p1In {
		ax.ex = t.keyComp(relP1)
	}
	ax.step, ax.tMax, ax.tDelta = initAxis(relP0, p1-p0, t.resolution)
}

// multiWalker holds the fused setup of one collision query: the centre ray's
// three axis states plus a scratch slot for the one axis each offset ray
// recomputes. Queries keep it on the stack; nothing escapes.
type multiWalker struct {
	x, y, z rayAxis // centre-ray axis states
	o       rayAxis // scratch: the recomputed axis of the current offset ray
}

// init computes the centre-ray axis states for the segment a→b.
func (m *multiWalker) init(t *Tree, a, b geom.Vec3) {
	t.fillRayAxis(&m.x, a.X, b.X, t.origin.X)
	t.fillRayAxis(&m.y, a.Y, b.Y, t.origin.Y)
	t.fillRayAxis(&m.z, a.Z, b.Z, t.origin.Z)
}

// summaryView returns the summary words the prescan and the block skip may
// trust, or nil when the summary is unsound for the policy: a zero layer
// byte proves its slab free of Occupied voxels only, so only a policy that
// blocks on nothing but Occupied (UnknownIsFree; Free never blocks) may
// elide classification loads.
func (t *Tree) summaryView(q QueryPolicy) *occSummary {
	if !q.UnknownIsFree || t.sum.layers == nil {
		return nil
	}
	return &t.sum
}

// bundleSlack is the per-axis key slack of the prescan's box; see
// axisBundleKeys for why one key is enough.
const bundleSlack = 1

// axisBundleKeys returns the inclusive key range, on one axis, of every
// voxel the seven probe walks of a radius-r query along av→bv could
// classify on that axis, or ok=false when an offset endpoint coordinate
// (av±r, bv±r) is not inside the root slab (or is NaN): some probe ray then
// crosses out-of-volume space, and the walks must answer.
//
// On each axis a walk runs either the centre ray's state or, for the two
// offset rays perturbed on this axis, the state of fl(av±r)→fl(bv±r). The
// range is the hull of the four offset endpoint keys widened by
// bundleSlack, and it holds every key a walk classifies:
//   - the start-endpoint key and the clip keys: key() is monotone, and the
//     clip points av+d·1e-9 and av+d·(1−1e-9) (d = bv−av) round into
//     [av, bv], so their keys lie between the endpoint keys, and the centre
//     ray's between the offset rays' (av−r ≤ av ≤ av+r for r > 0);
//   - the walk itself: it steps monotonically from the start clip key
//     toward the end clip key ex, and classifies a voxel only when it
//     entered it at a parameter ≤ 1+1e-9 (the overshoot guard runs first).
//     Rounding can carry it into ex±1 before that bound; entering the key
//     after that takes at least res/|dir| more, and |dir| < rootSize ≤
//     2^24·res, so that entry comes after 1+5.9e-8 and is never classified.
//     An axis with step 0 never leaves its start key.
//
// So the walks stay inside the hull plus one key; TestBundleKeysCoverWalks
// and FuzzBundleKeys record every classified voxel against this range, and
// the test shows one key is needed.
func (t *Tree) axisBundleKeys(av, bv, r, originv float64) (lo, hi int, ok bool) {
	relAP := (av + r) - originv
	relAM := (av - r) - originv
	relBP := (bv + r) - originv
	relBM := (bv - r) - originv
	if !(relAM >= 0 && relBM >= 0 && relAP < t.rootSize && relBP < t.rootSize) {
		return 0, 0, false
	}
	lo = max(min(t.keyComp(relAM), t.keyComp(relBM))-bundleSlack, 0)
	hi = min(max(t.keyComp(relAP), t.keyComp(relBP))+bundleSlack, t.maxKey-1)
	return lo, hi, true
}

// bundleAllFree reports whether the whole 7-ray query bundle a→b is
// provably free without walking: every endpoint of every probe ray keys
// inside the volume, and every (cell, z-layer) slab overlapping the keys any
// walk could classify holds zero Occupied leaves. The key coverage argument
// lives on axisBundleKeys; given it, a true return is exact: the walks would
// classify only voxels in zero slabs, under a policy where only Occupied
// voxels block, and would therefore return "free".
func (t *Tree) bundleAllFree(a, b geom.Vec3, q QueryPolicy) bool {
	sum := t.summaryView(q)
	if sum == nil {
		return false
	}
	r := q.Radius
	loX, hiX, ok := t.axisBundleKeys(a.X, b.X, r, t.origin.X)
	if !ok {
		return false
	}
	loY, hiY, ok := t.axisBundleKeys(a.Y, b.Y, r, t.origin.Y)
	if !ok {
		return false
	}
	loZ, hiZ, ok := t.axisBundleKeys(a.Z, b.Z, r, t.origin.Z)
	if !ok {
		return false
	}
	for cz := loZ >> brickShift; cz <= hiZ>>brickShift; cz++ {
		z0 := cz << brickShift
		mask := layerMask(max(loZ-z0, 0), min(hiZ-z0, 7))
		for cy := loY >> brickShift; cy <= hiY>>brickShift; cy++ {
			base := (cz*t.nc + cy) * t.nc
			for cx := loX >> brickShift; cx <= hiX>>brickShift; cx++ {
				if sum.word(base+cx)&mask != 0 {
					return false
				}
			}
		}
	}
	return true
}

// walkFree reports whether every voxel crossed by the single probe ray whose
// axis states are (ax, ay, az) is unblocked, with the whole segment inside
// the mapped volume — the rayFree reference rebuilt on fused axis state,
// mirroring it statement for statement (it runs only when the bundle
// prescan could not prove the query free, so the loop carries no summary
// overhead).
func (t *Tree) walkFree(ax, ay, az *rayAxis, q QueryPolicy) bool {
	if !ax.aIn || !ay.aIn || !az.aIn {
		return false
	}
	if !ax.bIn || !ay.bIn || !az.bIn {
		// The volume is convex: an endpoint outside means part of the
		// segment crosses out-of-volume (Occupied) space.
		return false
	}
	if q.blocked(t.classify(ax.ak, ay.ak, az.ak)) {
		return false
	}
	if ax.eq && ay.eq && az.eq {
		return true
	}
	if !ax.p0In || !ay.p0In || !az.p0In || !ax.p1In || !ay.p1In || !az.p1In {
		return true // nudged clip points key outside: the walk yields no voxels
	}
	// Hoist every per-step quantity into locals: the loop below runs one
	// iteration per crossed voxel across seven rays per query, and loads
	// through the axis pointers would re-run on every step.
	x, y, z := ax.x, ay.x, az.x
	ex, ey, ez := ax.ex, ay.ex, az.ex
	stepX, stepY, stepZ := ax.step, ay.step, az.step
	tMaxX, tMaxY, tMaxZ := ax.tMax, ay.tMax, az.tMax
	tDeltaX, tDeltaY, tDeltaZ := ax.tDelta, ay.tDelta, az.tDelta
	maxSteps := abs(ex-x) + abs(ey-y) + abs(ez-z) + 3
	maxKey := t.maxKey
	grid, nx, ny, nz := t.grid, t.nx, t.ny, t.nz
	tNext := 0.0
	for steps := 0; steps < maxSteps; steps++ {
		tEntry := tNext
		if tEntry > 1+1e-9 || x < 0 || y < 0 || z < 0 || x >= maxKey || y >= maxKey || z >= maxKey {
			// Walker overshoot artifact, not a crossed voxel: a near-zero
			// axis delta below the DDA threshold (step 0) with endpoints
			// straddling that axis's voxel boundary makes the end key
			// unreachable, and the walk spends its defensive step budget
			// drifting past the segment end (a genuinely crossed voxel is
			// entered at parameter ≤ 1 and in-range, and the end voxel
			// terminates the walk before either guard can trip).
			return true
		}
		// Manually inlined classify: one predictable branch and one byte
		// load per crossed voxel inside the bounds.
		var o Occupancy
		if grid != nil && x < nx && y < ny && z < nz {
			o = Occupancy(grid[(z*ny+y)*nx+x])
		} else {
			o = t.classifySlow(x, y, z)
		}
		if q.blocked(o) {
			return false
		}
		if x == ex && y == ey && z == ez {
			return true // end voxel reached, walk exhausted
		}
		switch {
		case tMaxX <= tMaxY && tMaxX <= tMaxZ:
			x += stepX
			tNext = tMaxX
			tMaxX += tDeltaX
		case tMaxY <= tMaxZ:
			y += stepY
			tNext = tMaxY
			tMaxY += tDeltaY
		default:
			z += stepZ
			tNext = tMaxZ
			tMaxZ += tDeltaZ
		}
	}
	return true
}

// walkFirstBlocked returns the parametric position along the single probe
// ray a→b (whose axis states are (ax, ay, az)) at which the ray first enters
// blocked space, and whether any such position exists. Every probe ray takes
// the one fused loop in firstBlockedWalk: a ray that stays inside the volume
// is seeded from its axis states, and a ray whose far endpoint leaves it from
// the slab clip startWalk computes, which then reports the clipped end as
// its collision when the walk finds nothing blocked before it.
func (t *Tree) walkFirstBlocked(a, b geom.Vec3, ax, ay, az *rayAxis, q QueryPolicy) (float64, bool) {
	if !ax.aIn || !ay.aIn || !az.aIn {
		return 0, true // starts in out-of-volume (Occupied) space
	}
	if q.blocked(t.classify(ax.ak, ay.ak, az.ak)) {
		return 0, true // starts inside a blocked voxel
	}
	var w rayWalker
	if !ax.bIn || !ay.bIn || !az.bIn {
		t.startWalk(&w, a, b)
		if w.valid {
			if f, blocked := t.firstBlockedWalk(&w, q); blocked {
				return f, true
			}
		}
		// The walk ran clean to the volume boundary, but the segment exits
		// the volume there: the crossing into out-of-volume space is the
		// first collision.
		return w.segParam(1), true
	}
	if ax.eq && ay.eq && az.eq {
		return 0, false
	}
	if !ax.p0In || !ay.p0In || !az.p0In || !ax.p1In || !ay.p1In || !az.p1In {
		return 0, false // walk yields no voxels; both endpoints key inside
	}
	// startWalk's fast path: the (0, 1) clip, seeded from the axis states.
	t0, t1 := 0.0, 1.0
	w = rayWalker{
		x: ax.x, y: ay.x, z: az.x,
		ex: ax.ex, ey: ay.ex, ez: az.ex,
		stepX: ax.step, stepY: ay.step, stepZ: az.step,
		tMaxX: ax.tMax, tMaxY: ay.tMax, tMaxZ: az.tMax,
		tDeltaX: ax.tDelta, tDeltaY: ay.tDelta, tDeltaZ: az.tDelta,
		maxSteps: abs(ax.ex-ax.x) + abs(ay.ex-ay.x) + abs(az.ex-az.x) + 3,
		valid:    true,
		clipLo:   t0 + 1e-9,
	}
	w.clipSpan = (t1 - 1e-9) - w.clipLo
	return t.firstBlockedWalk(&w, q) // both endpoints key inside: a clean walk has no crossing
}

// firstBlockedWalk walks the seeded ray w voxel by voxel and returns the
// caller's segment parameter (w.segParam) of the entry into the first
// blocked voxel, classifying inline as walkFree does. Where the occupancy
// summary may answer (summaryView), the walk classifies nothing in an 8³
// block that does not hold the walk's end voxel and whose z-layers the walk
// crosses inside it hold no Occupied voxel: blockExit carries it to the
// state the step-by-step walk holds at the first voxel past the block, and
// the crossed layers run from the entry voxel's z to the last in-block z
// (the exit voxel's, or one stepZ short of it when the walk left through
// z). Otherwise, or when the walk ends inside the block, it walks the block
// voxel by voxel from the entry state. No voxel of a skipped block's
// crossed layers can block the ray; the walk cannot end at its end voxel
// inside it; and every other way the step-by-step walk could stop inside it
// (the overshoot guard, the step budget) would also end the walk
// unblocked, and stops it at or before the exit voxel too, since crossings
// never decrease and a key that left the volume stays out. A block whose
// word is zero is skipped even when the walk ends inside it, which ends the
// walk. So the answer and the fraction bits are those of walking every
// voxel.
func (t *Tree) firstBlockedWalk(w *rayWalker, q QueryPolicy) (float64, bool) {
	sum, nc := t.summaryView(q), t.nc
	x, y, z := w.x, w.y, w.z
	ex, ey, ez := w.ex, w.ey, w.ez
	stepX, stepY, stepZ := w.stepX, w.stepY, w.stepZ
	tMaxX, tMaxY, tMaxZ := w.tMaxX, w.tMaxY, w.tMaxZ
	tDeltaX, tDeltaY, tDeltaZ := w.tDeltaX, w.tDeltaY, w.tDeltaZ
	maxSteps := w.maxSteps
	maxKey := t.maxKey
	grid, nx, ny, nz := t.grid, t.nx, t.ny, t.nz
	cell, endCell := -1, -1 // the block last looked up, the end voxel's block
	if sum != nil {
		endCell = cellOf(nc, ex, ey, ez)
	}
	tNext := 0.0
	for steps := 0; steps < maxSteps; steps++ {
		tEntry := tNext
		if tEntry > 1+1e-9 || x < 0 || y < 0 || z < 0 || x >= maxKey || y >= maxKey || z >= maxKey {
			break // walker overshoot artifact; see walkFree
		}
		if sum != nil {
			if c := cellOf(nc, x, y, z); c != cell {
				cell = c
				if c != endCell {
					ox, oy, oz, oMaxX, oMaxY, oMaxZ, tn, next, ok := blockExit(w, x, y, z, tMaxX, tMaxY, tMaxZ, steps)
					if !ok {
						if sum.word(c) == 0 {
							break
						}
					} else if sum.word(c)&crossedLayers(z, oz, stepZ) == 0 {
						x, y, z, tMaxX, tMaxY, tMaxZ = ox, oy, oz, oMaxX, oMaxY, oMaxZ
						tNext, steps = tn, next-1 // the loop counts the exit voxel
						continue
					}
				}
			}
		}
		// Manually inlined classify, as in walkFree.
		var o Occupancy
		if grid != nil && x < nx && y < ny && z < nz {
			o = Occupancy(grid[(z*ny+y)*nx+x])
		} else {
			o = t.classifySlow(x, y, z)
		}
		if q.blocked(o) {
			return w.segParam(tEntry), true
		}
		if x == ex && y == ey && z == ez {
			break // end voxel classified, walk exhausted
		}
		switch {
		case tMaxX <= tMaxY && tMaxX <= tMaxZ:
			x += stepX
			tNext = tMaxX
			tMaxX += tDeltaX
		case tMaxY <= tMaxZ:
			y += stepY
			tNext = tMaxY
			tMaxY += tDeltaY
		default:
			z += stepZ
			tNext = tMaxZ
			tMaxZ += tDeltaZ
		}
	}
	return 0, false
}

// crossedLayers returns the layer mask of the z-layers a walk crosses in
// the block it entered at key z and left for the voxel at key oz: from z to
// oz when it left through x or y, to oz−stepZ when it left through z.
func crossedLayers(z, oz, stepZ int) uint64 {
	last := oz
	if oz>>brickShift != z>>brickShift {
		last -= stepZ
	}
	return layerMask(min(z, last)&7, max(z, last)&7)
}

// blockExit takes the walk w, standing at voxel (x, y, z) with next
// crossings (tMaxX, tMaxY, tMaxZ) at voxel index i, to the first voxel
// outside the 8³ block that holds (x, y, z). It returns that voxel, the
// crossings there, its entry parameter (the walk's tNext) and its index,
// or ok=false when the walk ends inside the block: its budget (w.maxSteps)
// runs out first, or it leaves only at +Inf, where the walk's overshoot
// guard would stop it. The steps and crossing spacings are w's; the state
// travels in registers.
//
// It is the walk's own DDA stepping rule, run without classifying: every
// step takes the axis with the smallest (tMax, axis), ties going X before Y
// before Z, and adds that axis's tDelta to its tMax one addition at a time.
// So the exit voxel is entered by the first step whose axis leaves the
// block, and every other axis has taken exactly the steps that come before
// it: the state the step-by-step walk holds there. An axis with step 0 has
// tMax = tDelta = +Inf and never leaves the block.
func blockExit(w *rayWalker, x, y, z int, tMaxX, tMaxY, tMaxZ float64, i int) (
	ox, oy, oz int, oMaxX, oMaxY, oMaxZ, tNext float64, next int, ok bool) {
	stepX, stepY, stepZ := w.stepX, w.stepY, w.stepZ
	tDeltaX, tDeltaY, tDeltaZ := w.tDeltaX, w.tDeltaY, w.tDeltaZ
	// The steps each axis can take before the one that leaves the block:
	// 7-k&7 stepping up, k&7 stepping down.
	inX := x&7 ^ 7&^(stepX>>1)
	inY := y&7 ^ 7&^(stepY>>1)
	inZ := z&7 ^ 7&^(stepZ>>1)
	for {
		i++
		if i >= w.maxSteps {
			return
		}
		switch {
		case tMaxX <= tMaxY && tMaxX <= tMaxZ:
			x += stepX
			tNext = tMaxX
			tMaxX += tDeltaX
			inX--
			if inX >= 0 {
				continue
			}
		case tMaxY <= tMaxZ:
			y += stepY
			tNext = tMaxY
			tMaxY += tDeltaY
			inY--
			if inY >= 0 {
				continue
			}
		default:
			z += stepZ
			tNext = tMaxZ
			tMaxZ += tDeltaZ
			inZ--
			if inZ >= 0 {
				continue
			}
		}
		break
	}
	// Crossings never decrease along a walk, so an exit at a finite
	// parameter was preceded by finite steps only.
	if !(tNext <= math.MaxFloat64) {
		return
	}
	return x, y, z, tMaxX, tMaxY, tMaxZ, tNext, i, true
}
