// Package octomap implements the probabilistic occupancy map the perception
// stage maintains, following the OctoMap sensor model: leaf voxels hold
// clamped log-odds occupancy updated by hit/miss evidence from depth-sensor
// ray casts, over a power-of-two key cube that contains the world bounds.
//
// The map deliberately distinguishes three voxel states — occupied, free,
// and unknown — because the planners treat unknown space optimistically
// (traversable until observed), which is what lets the pipeline start
// planning before the map is complete. "Known" is encoded without a flag
// bit: a voxel is known iff its log-odds is non-zero. Nothing nudges
// evidence that cancels to exactly 0, so such a voxel would read as unknown
// again; with the default logit sensor model the hit/miss deltas are
// irrational multiples that never cancel exactly, so the case does not
// arise in practice.
//
// Every voxel inside the world bounds has one code byte (chain.go), the one
// home of its state. A voxel whose whole history is misses keeps its value
// in the code alone: its step on the miss chain, the values that many
// clamped misses leave. Every other voxel keeps its value in a bricked store
// (bricks.go): 8³ bricks allocated on first write and found through a dense
// cell index, so an update or a lookup costs one or two array loads; its
// code then names the brick and carries the value's class, rewritten in the
// same write as the value whenever the class changes. Beside them the tree
// keeps one exact derived structure, updated in that write too: the
// per-8³-cell, per-z-layer occupied counts of the occupancy summary
// (summary.go). Navigation queries (PointFree, SegmentFree, FirstBlocked)
// enumerate crossed voxels with the same DDA walk the insertion path uses
// and classify each from its code: one byte load and one table load.
package octomap

import (
	"fmt"
	"math"

	"mavfi/internal/geom"
)

// Occupancy classifies a queried voxel.
type Occupancy int

const (
	// Unknown voxels have never received evidence.
	Unknown Occupancy = iota
	// Free voxels have log-odds below the occupancy threshold.
	Free
	// Occupied voxels have log-odds at or above the threshold.
	Occupied
)

// Params are the sensor-model constants, defaulting to the standard OctoMap
// values.
type Params struct {
	LogOddsHit  float64 // evidence added on a ray endpoint hit
	LogOddsMiss float64 // evidence added on a ray pass-through
	ClampMin    float64 // lower log-odds clamp
	ClampMax    float64 // upper log-odds clamp
	OccThresh   float64 // log-odds at or above which a voxel is Occupied
}

// DefaultParams returns the standard OctoMap sensor model: P(hit)=0.7,
// P(miss)=0.4, clamps at P=0.12 and P=0.97, threshold P=0.5.
func DefaultParams() Params {
	return Params{
		LogOddsHit:  logit(0.7),
		LogOddsMiss: logit(0.4),
		ClampMin:    logit(0.12),
		ClampMax:    logit(0.97),
		OccThresh:   0,
	}
}

func logit(p float64) float64 { return math.Log(p / (1 - p)) }

// Tree is the occupancy map over a cubic volume. The name survives from the
// octree it once was: evidence only ever landed at unit depth and the tree
// never pruned, so every coarse node held exactly 0 and the octree was a
// sparse map from leaf key to log-odds. The brick store is that map without
// the descent.
//
// Aliasing: the walker's defensive overshoot in a degenerate-axis case can
// hand carve a key one or two steps outside [0, maxKey). Such a key fails
// carve's bounds test and goes to updateKey, which masks every key with
// keyMask before addressing, so that evidence lands on the voxel the masked
// key names, in its home and the summary alike: the voxel the octree's
// descent reached by reading only the low depth bits. Every other path
// receives in-range keys only.
type Tree struct {
	geometry
	params  Params
	maxKey  int     // 1 << depth: exclusive per-axis key bound
	keyMask int     // maxKey - 1
	nc      int     // cells per axis of the 8³ cell grid (bricks and summary)
	invRes  float64 // 1/resolution
	mulKey  bool    // resolution is a power of two: key() may multiply

	store brickStore // the log-odds of every voxel off the miss chain
	codes []uint8    // per leaf key of the bounds, its chain step or brick code (chain.go); nil over maxClassCells
	chain []float64  // the miss chain of params (see missChain); nil when they have none
	sum   occSummary // per-cell, per-layer occupied-voxel counts for the probe prescan and block skip

	leafUpdates int    // total leaf evidence updates, for overhead accounting
	gen         uint64 // bumped by every insertion, Reset and fork (Generation)

	fold seedFold // InsertCloudN's buffers; no mark is set between calls

	// probeRec, when non-nil, observes every classification, in probe
	// order, each then served from the voxel's value rather than its code.
	// Test instrumentation only (the fused-vs-sequential equivalence suite
	// records probe sequences through it); always nil in production, where
	// it costs classify one test and each walk one before its loop.
	probeRec func(x, y, z int)
}

// geometry is everything a tree derives from its bounds and resolution: the
// key cube and the leaf-key extents of the bounds that size the codes.
// Snapshots carry it, so forking and Snapshot.Matches need no probe tree.
type geometry struct {
	resolution float64
	depth      int
	origin     geom.Vec3
	rootSize   float64
	nx, ny, nz int // leaf-key extents of the bounds
}

// newGeometry returns the geometry of the axis-aligned cube that contains
// bounds at the given leaf resolution (0.5 m when resolution <= 0).
func newGeometry(bounds geom.AABB, resolution float64) geometry {
	if resolution <= 0 {
		resolution = 0.5
	}
	size := bounds.Size()
	maxSide := math.Max(size.X, math.Max(size.Y, size.Z))
	g := geometry{resolution: resolution, origin: bounds.Min, rootSize: resolution}
	for g.rootSize < maxSide {
		g.rootSize *= 2
		g.depth++
	}
	keyExtent := func(side float64) int {
		return max(int(math.Ceil(side/resolution)), 1)
	}
	g.nx, g.ny, g.nz = keyExtent(size.X), keyExtent(size.Y), keyExtent(size.Z)
	return g
}

// New creates a tree covering the axis-aligned cube that contains bounds,
// with the given leaf resolution in metres. It is Reset on a zero Tree, so
// a fresh tree and a recycled one share one initialisation path. It panics
// when the cube would exceed 2^24 leaves per axis.
func New(bounds geom.AABB, resolution float64, params Params) *Tree {
	t := new(Tree)
	t.Reset(bounds, resolution, params)
	return t
}

// Reset empties t and re-targets it at bounds, resolution and params,
// leaving it indistinguishable from New(bounds, resolution, params) to every
// query and to Digest while reusing its brick index, slab, summary and
// codes where they fit. It panics where New does.
func (t *Tree) Reset(bounds geom.AABB, resolution float64, params Params) {
	g := newGeometry(bounds, resolution)
	if g.depth > maxDepth {
		panic(fmt.Sprintf("octomap: volume of %g m needs %d key bits per axis, over the %d-bit limit",
			g.rootSize, g.depth, maxDepth))
	}
	t.reinit(g, params)
	t.empty()
}

// empty clears the map of the tree's current geometry: no bricks, zero
// summary words, every voxel Unknown at step 0 of the miss chain (at
// brickUnknown when the tree has no chain), no leaf updates.
func (t *Tree) empty() {
	t.store.reset(denseCells(t.nc))
	t.sum.layers = zeroed(t.sum.layers, summaryCells(t.nc, t.nz))
	t.sum.above = 0
	t.codes = zeroed(t.codes, classCells(t.nx, t.ny, t.nz))
	if t.chain == nil {
		for i := range t.codes {
			t.codes[i] = brickUnknown
		}
	}
	t.leafUpdates = 0
}

// reinit is the part of Reset and ForkInto that does not depend on the map
// content: it adopts geometry g and params and the key arithmetic they
// imply.
func (t *Tree) reinit(g geometry, params Params) {
	t.geometry = g
	t.params = params
	t.chain = missChain(t.chain, params)
	t.maxKey = 1 << g.depth
	t.keyMask = t.maxKey - 1
	t.nc = g.cellsPerAxis()
	t.invRes = 1 / g.resolution
	// When the resolution is a power of two (the 0.5 m default), 1/resolution
	// is exact and x*invRes == x/resolution bit-for-bit for every float, so
	// key() may use the cheaper multiply.
	frac, _ := math.Frexp(g.resolution)
	t.mulKey = frac == 0.5
	t.probeRec = nil
	t.gen++
}

// EnableClassCache is a no-op kept for source compatibility. The per-voxel
// classification it used to arm on demand is now carried by every voxel's
// code and kept exact on every write, so there is nothing left to enable;
// the benchmark harness's collision checker still calls it per plan.
func (t *Tree) EnableClassCache() {}

// cellsPerAxis is nc, the cells per axis of the 8³ cell grid over the key
// cube.
func (g geometry) cellsPerAxis() int { return max((1<<g.depth)>>brickShift, 1) }

// cell returns the flat cell number of masked key (x, y, z).
func (t *Tree) cell(x, y, z int) int { return cellOf(t.nc, x, y, z) }

// classOf classifies a log-odds value (see the package comment for why 0
// means unknown).
func (t *Tree) classOf(lo float64) Occupancy {
	switch {
	case lo == 0:
		return Unknown
	case lo >= t.params.OccThresh:
		return Occupied
	default:
		return Free
	}
}

// reclassify records that the voxel at masked key (x, y, z), which lives in
// its brick, went from class from to class to: the one place the summary
// count and a brick code's class change, called by every brick write whose
// update changes a voxel's class, which is what keeps both exact after
// every mutation with nothing to invalidate.
func (t *Tree) reclassify(x, y, z int, from, to Occupancy) {
	if t.sum.layers != nil && (from == Occupied) != (to == Occupied) {
		t.sum.count(t.cell(x, y, z), z, to == Occupied)
	}
	if t.codes != nil && x < t.nx && y < t.ny && z < t.nz {
		t.codes[(z*t.ny+y)*t.nx+x] = brickCode(to)
	}
}

// classify returns the occupancy classification of in-range leaf key
// (x,y,z): its code, decoded, inside the bounds, a brick lookup outside
// them.
func (t *Tree) classify(x, y, z int) Occupancy {
	if codes, nx, ny, nz := t.codeView(); x < nx && y < ny && z < nz {
		return Occupancy(codeClass[codes[(z*ny+y)*nx+x]])
	}
	return t.classifySlow(x, y, z)
}

// classifySlow classifies key (x,y,z) from its value, read from its home.
func (t *Tree) classifySlow(x, y, z int) Occupancy {
	if t.probeRec != nil {
		t.probeRec(x, y, z)
	}
	lo, _ := t.lookup(x, y, z)
	return t.classOf(lo)
}

// Generation returns a number that changes whenever the map may have
// changed: every scan insertion, Reset and fork bumps it, and nothing else
// writes a voxel. So two equal readings of one tree bracket a stretch in
// which every query answer stood still, and a caller may key a cached
// answer by the tree and this number (the collision check's way-point scan
// does).
func (t *Tree) Generation() uint64 { return t.gen }

// Resolution returns the leaf voxel side length in metres.
func (t *Tree) Resolution() float64 { return t.resolution }

// LeafUpdates returns the total number of leaf evidence updates applied,
// the map-update work count (BenchmarkInsertCloud reports it per scan). The
// platform model does not read it: it charges a fixed OctoMap latency per
// integration (platform.Platform.OctoMapS).
func (t *Tree) LeafUpdates() int { return t.leafUpdates }

// key converts a world point to integer voxel coordinates at leaf depth.
// ok is false outside the root volume, and for a NaN coordinate: the range
// test is written so that every comparison must hold (the form fillRayAxis
// uses), and a comparison with NaN never does, so NaN on an axis is out of
// range exactly as +Inf there is. Power-of-two resolutions take the
// multiply path, which is bit-identical to the divide (see reinit).
func (t *Tree) key(p geom.Vec3) (x, y, z int, ok bool) {
	rel := p.Sub(t.origin)
	in := rel.X >= 0 && rel.X < t.rootSize &&
		rel.Y >= 0 && rel.Y < t.rootSize &&
		rel.Z >= 0 && rel.Z < t.rootSize
	if !in {
		return 0, 0, 0, false
	}
	if t.mulKey {
		return int(rel.X * t.invRes), int(rel.Y * t.invRes), int(rel.Z * t.invRes), true
	}
	x = int(rel.X / t.resolution)
	y = int(rel.Y / t.resolution)
	z = int(rel.Z / t.resolution)
	return x, y, z, true
}

// keyComp converts one in-range axis offset rel = coordinate - origin to its
// integer key component, exactly as key() does (multiply path for power-of-
// two resolutions, bit-identical to the divide; see reinit). The fused
// walker uses it to key single recomputed axes.
func (t *Tree) keyComp(rel float64) int {
	if t.mulKey {
		return int(rel * t.invRes)
	}
	return int(rel / t.resolution)
}

// updateKey applies one hit or miss, n times over, to the voxel at key
// (x, y, z), masked first (see Tree), clamping after every step, and counts
// the n updates in LeafUpdates. It is the one write path outside carve's
// fast path. A miss on a voxel on the miss chain advances its code; any
// other update lands in the voxel's brick, and a hit moves a chain voxel
// there first. While InsertCloudN folds a scan, an update to a marked voxel
// is held back instead (see InsertCloudN), uncounted until it is applied.
//
// Every carve step that leaves the fast path comes here, so the compiler is
// kept from inlining it into carve's loop.
//
//go:noinline
func (t *Tree) updateKey(x, y, z int, hit bool, n int) {
	x, y, z = x&t.keyMask, y&t.keyMask, z&t.keyMask
	if t.marked(x, y, z) {
		t.fold.held = append(t.fold.held, heldUpdate{int32(x), int32(y), int32(z), hit})
		return
	}
	t.leafUpdates += n
	if i, ok := t.onChain(x, y, z); ok && !hit {
		t.codes[i] = uint8(min(int(t.codes[i])+n, len(t.chain)-1))
		return
	}
	delta := t.params.LogOddsMiss
	if hit {
		delta = t.params.LogOddsHit
	}
	off := t.toBrick(x, y, z)
	old := t.store.slab[off]
	lo := old
	for range n {
		lo = geom.Clampf(lo+delta, t.params.ClampMin, t.params.ClampMax)
	}
	t.store.slab[off] = lo
	if from, to := t.classOf(old), t.classOf(lo); from != to {
		t.reclassify(x, y, z, from, to)
	}
}

// lookup returns the log-odds of the voxel at in-range key (x,y,z), read
// from its home, and whether it has ever received evidence (known ⇔
// non-zero log-odds; see the package comment).
func (t *Tree) lookup(x, y, z int) (logOdds float64, known bool) {
	if i, ok := t.onChain(x, y, z); ok {
		return t.chain[t.codes[i]], t.codes[i] != 0
	}
	b := t.store.slot(t.cell(x, y, z))
	if b == 0 {
		return 0, false
	}
	lo := t.store.slab[int(b-1)*brickVoxels+voxelOffset(x, y, z)]
	return lo, lo != 0
}

// At classifies the voxel containing p. Points outside the mapped volume are
// Occupied (flying out of bounds is not allowed).
func (t *Tree) At(p geom.Vec3) Occupancy {
	x, y, z, ok := t.key(p)
	if !ok {
		return Occupied
	}
	return t.classify(x, y, z)
}

// integrateRay is the evidence schedule of one ray, applied n times over
// in one walk: miss evidence along the clipped walk (endpoint voxel
// excluded), then hit or miss evidence at the endpoint voxel. InsertCloud
// runs it with n = 1 and InsertCloudN with its n.
func (t *Tree) integrateRay(origin, end geom.Vec3, hit bool, n int) {
	ex, ey, ez, endOK := t.key(end)
	var w rayWalker
	t.startWalk(&w, origin, end)
	if w.valid {
		t.carve(&w, ex, ey, ez, endOK, n)
	}
	if endOK {
		t.updateKey(ex, ey, ez, hit, n)
	}
}

// carve applies n misses to every voxel the seeded walk w crosses, in walk
// order, except the endpoint voxel (ex, ey, ez) when endOK. It is the DDA
// walk and updateKey fused into one loop, which is where a
// sweep-exact mission spends most of its host time, and it serves both
// InsertCloud (n = 1) and InsertCloudN. The DDA state lives in locals, and
// a crossing of a voxel on the miss chain (almost all of them) is one byte
// store: its code steps n along the chain, saturating at the fixed point,
// and so decodes to Free, the class of every chain value after 0; such a
// voxel is never Occupied, so the summary cannot change. Every other
// crossing (a voxel in its brick, a key outside the bounds, an overshoot
// key, any voxel of a tree without the chain, whose codes are all brick
// codes) goes through updateKey, which also holds back the updates to the
// voxels InsertCloudN marked; those are all in bricks, so the fast path
// needs no mark test. The leaf-update counter advances once per ray for the
// fast crossings. It visits the voxels the walk crosses, in walk order, so
// every value, summary count and code comes out as the per-voxel updates
// leave them; the randomized equivalence test against an independent map
// oracle pins this.
func (t *Tree) carve(w *rayWalker, ex, ey, ez int, endOK bool, n int) {
	codes := t.codes
	nx, ny, nz := t.nx, t.ny, t.nz
	if codes == nil {
		nx = 0 // no codes: every crossing takes updateKey
	}
	last := len(t.chain) - 1 // the chain's fixed point
	x, y, z := w.x, w.y, w.z
	tMaxX, tMaxY, tMaxZ := w.tMaxX, w.tMaxY, w.tMaxZ
	fast := 0
	for steps := 0; steps < w.maxSteps; steps++ {
		if !endOK || x != ex || y != ey || z != ez {
			i := (z*ny+y)*nx + x
			if uint(x) < uint(nx) && uint(y) < uint(ny) && uint(z) < uint(nz) && codes[i] < brickUnknown {
				codes[i] = uint8(min(int(codes[i])+n, last))
				fast++
			} else {
				t.updateKey(x, y, z, false, n)
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
	t.leafUpdates += n * fast
}

// rayWalker is the seeded state of a DDA walk over the leaf voxels a
// segment crosses, clipped to the root volume. Every walk in the package is
// seeded through startWalk (or, for the fused collision probes, from the
// same per-axis arithmetic; see fusedwalk.go), and every loop that steps it
// (carve, walkFree, firstBlockedWalk) uses the one stepping rule: advance
// the axis with the smallest tMax, ties going X before Y before Z. So every
// segment↔voxel enumeration in the package visits bit-identical voxel
// sequences.
//
// clipLo and clipSpan map a walk parameter (0 at the clipped start, 1 at the
// clipped end) back to the caller's origin→end parameterisation (segParam);
// FirstBlocked uses this to report the exact boundary crossing into the
// first blocked voxel.
type rayWalker struct {
	x, y, z                   int
	ex, ey, ez                int
	stepX, stepY, stepZ       int
	tMaxX, tMaxY, tMaxZ       float64
	tDeltaX, tDeltaY, tDeltaZ float64
	maxSteps                  int
	valid                     bool
	clipLo, clipSpan          float64 // map clipped space back to origin→end space
}

// startWalk initialises w for the segment origin→end clipped to the root
// volume; w is invalid (yields no voxels) when the segment misses it.
func (t *Tree) startWalk(w *rayWalker, origin, end geom.Vec3) {
	w.valid = false
	t0, t1 := 0.0, 1.0
	if _, _, _, okA := t.key(origin); !okA {
		t0 = -1 // force the slab clip below
	} else if _, _, _, okB := t.key(end); !okB {
		t0 = -1
	}
	if t0 < 0 {
		// Clip the segment to the root volume. When both endpoints key
		// inside the volume the slab method returns exactly (0, 1) — the
		// fast path above — because the root box is convex and key()
		// excludes its far faces.
		rootBox := geom.Box(t.origin, t.origin.Add(geom.V(t.rootSize, t.rootSize, t.rootSize)))
		var ok bool
		ok, t0, t1 = rootBox.SegmentIntersection(origin, end)
		if !ok {
			return
		}
	}
	t.seedWalk(w, origin, end, t0, t1)
}

// seedWalk is the tail of startWalk for the clip (t0, t1): nudge the
// clipped endpoints inward, key them, and set up the per-axis DDA state.
// The fused collision probes derive the (0, 1) seed axis by axis with the
// same arithmetic (fillRayAxis).
func (t *Tree) seedWalk(w *rayWalker, origin, end geom.Vec3, t0, t1 float64) {
	d := end.Sub(origin)
	p0 := origin.Add(d.Scale(t0 + 1e-9))
	p1 := origin.Add(d.Scale(t1 - 1e-9))
	w.clipLo = t0 + 1e-9
	w.clipSpan = (t1 - 1e-9) - w.clipLo

	x, y, z, ok := t.key(p0)
	if !ok {
		return
	}
	ex, ey, ez, ok := t.key(p1)
	if !ok {
		return
	}

	dir := p1.Sub(p0)
	w.stepX, w.tMaxX, w.tDeltaX = initAxis(p0.X-t.origin.X, dir.X, t.resolution)
	w.stepY, w.tMaxY, w.tDeltaY = initAxis(p0.Y-t.origin.Y, dir.Y, t.resolution)
	w.stepZ, w.tMaxZ, w.tDeltaZ = initAxis(p0.Z-t.origin.Z, dir.Z, t.resolution)

	w.x, w.y, w.z = x, y, z
	w.ex, w.ey, w.ez = ex, ey, ez
	// Bound iterations defensively: the ray cannot cross more voxels than
	// the Manhattan key distance plus slack.
	w.maxSteps = abs(ex-x) + abs(ey-y) + abs(ez-z) + 3
	w.valid = true
}

// segParam maps a clipped-walk parameter (0 at the clipped start, 1 at the
// clipped end) back to the caller's origin→end parameterisation, clamped to
// [0,1].
func (w *rayWalker) segParam(s float64) float64 {
	f := w.clipLo + s*w.clipSpan
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// initAxis computes DDA stepping state for one axis: the step direction, the
// parametric distance to the first voxel boundary, and the parametric
// distance between boundaries.
func initAxis(pos, dir, res float64) (step int, tMax, tDelta float64) {
	cell := math.Floor(pos / res)
	switch {
	case dir > 1e-12:
		step = 1
		tMax = ((cell+1)*res - pos) / dir
		tDelta = res / dir
	case dir < -1e-12:
		step = -1
		tMax = (pos - cell*res) / -dir
		tDelta = res / -dir
	default:
		step = 0
		tMax = math.Inf(1)
		tDelta = math.Inf(1)
	}
	return step, tMax, tDelta
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
