// Package octomap implements the probabilistic occupancy octree the
// perception stage maintains, following the OctoMap design: leaf voxels hold
// clamped log-odds occupancy updated by hit/miss evidence from depth-sensor
// ray casts, and queries descend the tree from a cubic root volume.
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
// Navigation queries (PointFree, SegmentFree, FirstBlocked) enumerate
// crossed voxels with the same DDA walk the insertion path uses, and both
// read and write descents are memoised; see classCache for the per-voxel
// classification cache the planners arm per plan invocation.
package octomap

import (
	"math"
	"math/bits"

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

// Tree is the occupancy octree over a cubic volume.
//
// Nodes live in one contiguous arena (t.nodes) and reference their children
// by index, not pointer: a node is 16 bytes instead of a heap object with
// eight child pointers, the eight children of a node are adjacent in memory,
// and the whole arena is pointer-free — the garbage collector never scans
// the map and the hot path emits no write barriers. Expansion always
// materialises all eight children at once (the original invariant), so a
// node is either a leaf (firstChild < 0) or fully interior.
type Tree struct {
	params     Params
	resolution float64
	depth      int       // tree depth; leaves are resolution-sized
	origin     geom.Vec3 // minimum corner of the root cube
	rootSize   float64   // side length of the root cube
	maxKey     int       // rootSize/resolution: exclusive per-axis key bound
	keyMask    int       // maxKey - 1; maxKey is always a power of two
	invRes     float64   // 1/resolution
	mulKey     bool      // resolution is a power of two: key() may multiply
	nodes      []node    // node arena; index 0 is the root

	path pathCache  // memoised write-path descent for coherent updates
	qry  queryCache // memoised read-path descent for coherent queries
	mut  uint64     // bumped on every tree mutation; invalidates qry and cls
	cls  classCache // memoised per-voxel classifications for collision queries
	sum  occSummary // per-8³-block occupied-leaf counts for the probe walkers

	leafUpdates int // total leaf evidence updates, for overhead accounting

	// probeRec, when non-nil, observes every uncached classification in probe
	// order. Test instrumentation only (the fused-vs-sequential equivalence
	// suite records probe sequences through it); always nil in production, and
	// the check sits on the classification miss path, never on the cached one.
	probeRec func(x, y, z int)
}

// node is one octree cell: a leaf when firstChild < 0, otherwise its eight
// children are nodes[firstChild .. firstChild+7] in Morton child order.
type node struct {
	logOdds    float64
	firstChild int32
}

const noChild = int32(-1)

// pathCache memoises the most recent root→leaf write descent. Consecutive
// evidence updates come from voxel-stepped rays and are therefore spatially
// coherent: the next key usually shares all but the lowest level(s) of its
// path with the previous one, so the descent restarts at the first differing
// level instead of at the root. Entries are arena indices, which stay valid
// across arena growth and in-place expansion.
type pathCache struct {
	valid   bool
	x, y, z int
	parents [32]int32 // parents[level] chose its child with bit `level`
	leaf    int32
}

// queryCache memoises the most recent lookup descent the same way. Reads
// stop early at coarse leaves, so the cache also records where the walk
// terminated; any tree mutation (t.mut) invalidates it, which keeps the
// planner's query bursts fast without ever serving stale structure.
type queryCache struct {
	mut      uint64
	valid    bool
	x, y, z  int
	parents  [32]int32
	endLevel int // level the walk stopped before consuming; -1 = full depth
	terminal int32
}

// classCache memoises per-voxel occupancy classifications for the collision
// query paths (At, PointFree, SegmentFree, FirstBlocked). A planner
// invocation probes the same voxels hundreds of times — RRT* re-checks
// overlapping segments from choose-parent, rewiring, and goal connection —
// and between two scan integrations the map cannot change, so a
// classification computed once is valid for every later probe of the same
// voxel. The cache is a dense epoch-stamped byte grid over the leaf keys of
// the world bounds: one array index replaces a root→leaf descent. Any tree
// mutation bumps t.mut, which retires the whole epoch in O(1); the stored
// classifications are exactly what lookup would return, so cached and
// uncached queries are bit-identical.
//
// The grid is allocated on demand by EnableClassCache (the planners arm it
// through planning.PlanCacher on their first Plan invocation), so trees used
// only for insertion — detector training, map-building tools — never pay the
// footprint.
type classCache struct {
	grid       []uint8 // epoch<<2 | occupancy; 0 = never written
	epoch      uint8   // current epoch, 1..63; 0 = not yet started
	mut        uint64  // tree mutation count the current epoch is valid for
	nx, ny, nz int     // leaf-key extents of the cached volume (the New bounds)
}

// maxClassCacheCells caps the classification grid footprint (bytes). The
// paper's largest world (Farm, 80×80×20 m at 0.5 m) needs ~1M cells; a world
// over the cap simply runs uncached.
const maxClassCacheCells = 4 << 20

// arenaPresize is the node capacity a tree's first arena starts with: 1<<17
// 16-byte nodes, 2 MiB. That is not enough for a mission: nominal missions
// on the paper's four worlds build 108K–313K nodes (1.7–5.0 MB), and faulty
// missions that wander build more, so a tree built from scratch regrows and
// copies its arena several times. Trees recycled through Reset or ForkInto
// keep the grown arena instead, which is why the pipeline draws every
// mission's tree from a free list.
const arenaPresize = 1 << 17

// geometry is everything a tree derives from its bounds and resolution: the
// root cube that addresses the nodes and the leaf-key extents of the bounds
// that size the classification grid. Snapshots carry it, so forking and
// Snapshot.Matches need no probe tree.
type geometry struct {
	resolution float64
	depth      int
	origin     geom.Vec3
	rootSize   float64
	nx, ny, nz int // class-cache extents
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
// a fresh tree and a recycled one share one initialisation path.
func New(bounds geom.AABB, resolution float64, params Params) *Tree {
	t := new(Tree)
	t.Reset(bounds, resolution, params)
	return t
}

// Reset empties t and re-targets it at bounds, resolution and params,
// leaving it indistinguishable from New(bounds, resolution, params) to every
// query and to Digest while reusing its node arena, summary slab and
// classification grid where they fit. The recycling gates pin this,
// including a tree reset mid class-cache epoch.
func (t *Tree) Reset(bounds geom.AABB, resolution float64, params Params) {
	t.reinit(newGeometry(bounds, resolution), params)
	if t.nodes == nil {
		t.nodes = make([]node, 0, arenaPresize)
	}
	t.nodes = append(t.nodes[:0], node{firstChild: noChild})
	t.initSummary()
	t.leafUpdates = 0
}

// reinit is the part of Reset and ForkInto that does not depend on the map
// content: it adopts geometry g and params and drops every memo of the old
// map. The mutation counter restarts at zero, so invalidation must be
// explicit rather than counter-based: a recycled tree's caches could
// otherwise carry entries whose stamped mutation count the new map's counter
// will reach again, reviving classifications of a map that no longer
// exists. The path and query caches are dropped outright; the
// classification grid keeps its allocation when the extents match but
// retires its epoch (with the same wrap handling classify uses, clearing the
// grid when the 6-bit epoch would overflow — the mid-epoch-wrap regression
// test pins this), so no entry stamped before the reset can ever be served
// after it.
func (t *Tree) reinit(g geometry, params Params) {
	t.params = params
	t.resolution, t.depth, t.origin, t.rootSize = g.resolution, g.depth, g.origin, g.rootSize
	t.maxKey = int(g.rootSize / g.resolution)
	t.keyMask = t.maxKey - 1
	t.invRes = 1 / g.resolution
	// When the resolution is a power of two (the 0.5 m default), 1/resolution
	// is exact and x*invRes == x/resolution bit-for-bit for every float, so
	// key() may use the cheaper multiply.
	frac, _ := math.Frexp(g.resolution)
	t.mulKey = frac == 0.5
	t.mut = 0
	t.path = pathCache{}
	t.qry = queryCache{}
	t.probeRec = nil
	if t.cls.nx != g.nx || t.cls.ny != g.ny || t.cls.nz != g.nz {
		// Different extents: the grid's indexing no longer matches, so drop
		// it and let EnableClassCache re-arm lazily at the new extents.
		t.cls = classCache{nx: g.nx, ny: g.ny, nz: g.nz}
		return
	}
	t.retireClassCache()
}

// retireClassCache invalidates every cached classification while keeping the
// grid allocation, exactly the way classify retires an epoch: bump it, and
// clear the grid when the 6-bit epoch space wraps. Called by reinit, where
// the mutation counter restarts and counter-keyed invalidation alone would
// be unsound.
func (t *Tree) retireClassCache() {
	c := &t.cls
	c.mut = t.mut
	if c.grid == nil {
		c.epoch = 0
		return
	}
	c.epoch++
	if c.epoch == 1<<6 {
		clear(c.grid)
		c.epoch = 1
	}
}

// EnableClassCache arms the per-voxel classification cache (see classCache).
// Idempotent; a no-op when the world bounds exceed the footprint cap.
// Planning consumers arm it through planning.PlanCacher/BeginPlan.
func (t *Tree) EnableClassCache() {
	c := &t.cls
	if c.grid != nil {
		return
	}
	if cells := c.nx * c.ny * c.nz; cells <= maxClassCacheCells {
		c.grid = make([]uint8, cells)
	}
}

// classify returns the occupancy classification of leaf key (x,y,z),
// memoised in the classification cache when it is armed and covers the key.
func (t *Tree) classify(x, y, z int) Occupancy {
	c := &t.cls
	if c.grid == nil || x < 0 || y < 0 || z < 0 || x >= c.nx || y >= c.ny || z >= c.nz {
		return t.classifySlow(x, y, z)
	}
	if c.mut != t.mut || c.epoch == 0 {
		// The tree mutated since this epoch was stamped: retire every cached
		// entry at once by moving to a fresh epoch.
		c.mut = t.mut
		c.epoch++
		if c.epoch == 1<<6 {
			clear(c.grid)
			c.epoch = 1
		}
	}
	i := (z*c.ny+y)*c.nx + x
	if v := c.grid[i]; v>>2 == c.epoch {
		return Occupancy(v & 3)
	}
	o := t.classifySlow(x, y, z)
	c.grid[i] = c.epoch<<2 | uint8(o)
	return o
}

// classProbe is a per-query view of the classification cache with the
// epoch/mutation bookkeeping hoisted out of the per-voxel path. The
// collision queries classify one voxel per DDA step across up to seven rays
// per call; re-checking the mutation counter on every voxel is pure overhead
// because the tree cannot mutate mid-query (queries and insertion run
// strictly in turn on the mission loop). classProbeView refreshes the epoch
// exactly the way classify does, once, and the probe then serves the same
// cached bytes classify would — cached and uncached paths stay
// bit-identical.
type classProbe struct {
	t          *Tree
	grid       []uint8
	epoch      uint8
	nx, ny, nz int
}

// classProbeView returns a probe over the current cache epoch (refreshing it
// first, as classify would). With the cache unarmed the probe falls through
// to the uncached descents.
func (t *Tree) classProbeView() classProbe {
	c := &t.cls
	p := classProbe{t: t}
	if c.grid == nil {
		return p
	}
	if c.mut != t.mut || c.epoch == 0 {
		c.mut = t.mut
		c.epoch++
		if c.epoch == 1<<6 {
			clear(c.grid)
			c.epoch = 1
		}
	}
	p.grid, p.epoch, p.nx, p.ny, p.nz = c.grid, c.epoch, c.nx, c.ny, c.nz
	return p
}

// classify is classify on the hoisted view: one bounds check and one byte
// load on the hit path.
func (p *classProbe) classify(x, y, z int) Occupancy {
	if p.grid == nil || x < 0 || y < 0 || z < 0 || x >= p.nx || y >= p.ny || z >= p.nz {
		return p.t.classifySlow(x, y, z)
	}
	i := (z*p.ny+y)*p.nx + x
	if v := p.grid[i]; v>>2 == p.epoch {
		return Occupancy(v & 3)
	}
	o := p.t.classifySlow(x, y, z)
	p.grid[i] = p.epoch<<2 | uint8(o)
	return o
}

// classifySlow is the uncached classification: one (path-memoised) descent.
func (t *Tree) classifySlow(x, y, z int) Occupancy {
	if t.probeRec != nil {
		t.probeRec(x, y, z)
	}
	lo, known := t.lookup(x, y, z)
	if !known {
		return Unknown
	}
	if lo >= t.params.OccThresh {
		return Occupied
	}
	return Free
}

// Resolution returns the leaf voxel side length in metres.
func (t *Tree) Resolution() float64 { return t.resolution }

// LeafUpdates returns the total number of leaf evidence updates applied,
// used by the platform model to charge map-update compute time.
func (t *Tree) LeafUpdates() int { return t.leafUpdates }

// key converts a world point to integer voxel coordinates at leaf depth.
// ok is false outside the root volume. Power-of-two resolutions take the
// multiply path, which is bit-identical to the divide (see New).
func (t *Tree) key(p geom.Vec3) (x, y, z int, ok bool) {
	rel := p.Sub(t.origin)
	if rel.X < 0 || rel.Y < 0 || rel.Z < 0 ||
		rel.X >= t.rootSize || rel.Y >= t.rootSize || rel.Z >= t.rootSize {
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
// two resolutions, bit-identical to the divide; see New). The fused walker
// uses it to key single recomputed axes.
func (t *Tree) keyComp(rel float64) int {
	if t.mulKey {
		return int(rel * t.invRes)
	}
	return int(rel / t.resolution)
}

// VoxelCenter returns the centre of the leaf voxel containing p; ok is false
// outside the volume.
func (t *Tree) VoxelCenter(p geom.Vec3) (geom.Vec3, bool) {
	x, y, z, ok := t.key(p)
	if !ok {
		return geom.Vec3{}, false
	}
	r := t.resolution
	return t.origin.Add(geom.V((float64(x)+0.5)*r, (float64(y)+0.5)*r, (float64(z)+0.5)*r)), true
}

// expand turns leaf ni into an interior node, pushing its value down into
// eight freshly appended children.
func (t *Tree) expand(ni int32) {
	base := int32(len(t.nodes))
	lo := t.nodes[ni].logOdds
	var block [8]node
	for i := range block {
		block[i] = node{logOdds: lo, firstChild: noChild}
	}
	t.nodes = append(t.nodes, block[:]...)
	t.nodes[ni].firstChild = base
	t.mut++
}

// descend returns the leaf node index for key (x,y,z), expanding interior
// nodes as needed. The path cache short-circuits the shared upper levels of
// coherent key sequences.
func (t *Tree) descend(x, y, z int) int32 {
	startLevel := t.depth - 1
	ni := int32(0)
	if t.path.valid {
		diff := (x ^ t.path.x) | (y ^ t.path.y) | (z ^ t.path.z)
		if diff == 0 {
			return t.path.leaf
		}
		if hb := bits.Len(uint(diff)) - 1; hb < startLevel {
			// All levels above hb select the same children as the cached
			// descent; resume from the first level whose child index can
			// differ.
			startLevel = hb
			ni = t.path.parents[hb]
		}
	}
	for level := startLevel; level >= 0; level-- {
		if t.nodes[ni].firstChild == noChild {
			// Expand: push current value down on demand.
			t.expand(ni)
		}
		idx := ((x>>level)&1)<<2 | ((y>>level)&1)<<1 | (z >> level & 1)
		t.path.parents[level] = ni
		ni = t.nodes[ni].firstChild + int32(idx)
	}
	t.path.valid = true
	t.path.x, t.path.y, t.path.z = x, y, z
	t.path.leaf = ni
	return ni
}

// updateKey applies delta log-odds evidence to the voxel at integer key
// (x,y,z), expanding interior nodes as needed.
func (t *Tree) updateKey(x, y, z int, delta float64) {
	t.applyDelta(t.descend(x, y, z), x, y, z, delta)
}

// applyDelta applies one evidence delta to the leaf at arena index ni, which
// descend resolved for key (x,y,z), clamping the sum (see the package comment
// for how a voxel's log-odds also encodes whether it is known).
//
// The occupancy summary is maintained here and in carve, on the
// occupied↔free/unknown classification transitions of the updated leaf:
// these are the only writes that can change a unit leaf's classification
// (see occSummary for why expand cannot), so updating the block count in the
// same write keeps the summary exact after every mutation.
func (t *Tree) applyDelta(ni int32, x, y, z int, delta float64) {
	n := &t.nodes[ni]
	old := n.logOdds
	n.logOdds = geom.Clampf(old+delta, t.params.ClampMin, t.params.ClampMax)
	if t.sum.counts != nil {
		wasOcc := old != 0 && old >= t.params.OccThresh
		isOcc := n.logOdds != 0 && n.logOdds >= t.params.OccThresh
		if wasOcc != isOcc {
			bi := t.summaryIndex(x, y, z)
			if isOcc {
				t.sum.counts[bi]++
			} else {
				t.sum.counts[bi]--
			}
		}
	}
	t.leafUpdates++
	t.mut++
}

// lookup returns the log-odds of the leaf (or coarser) node covering key
// (x,y,z) and whether the voxel has ever received evidence (known ⇔
// non-zero log-odds; see the package comment). Planner queries arrive in
// spatially coherent bursts between map updates, so the descent resumes from
// the cached path whenever the tree has not mutated since.
func (t *Tree) lookup(x, y, z int) (logOdds float64, known bool) {
	startLevel := t.depth - 1
	ni := int32(0)
	q := &t.qry
	if q.valid && q.mut == t.mut {
		diff := (x ^ q.x) | (y ^ q.y) | (z ^ q.z)
		hb := bits.Len(uint(diff)) - 1 // -1 when diff == 0
		if hb <= q.endLevel {
			// The cached walk terminated above every differing bit: the
			// same (possibly coarse) node covers this key.
			lo := t.nodes[q.terminal].logOdds
			return lo, lo != 0
		}
		if hb < startLevel {
			startLevel = hb
			ni = q.parents[hb]
		}
	} else {
		q.valid = true
		q.mut = t.mut
	}
	level := startLevel
	for ; level >= 0; level-- {
		fc := t.nodes[ni].firstChild
		if fc == noChild {
			break
		}
		idx := ((x>>level)&1)<<2 | ((y>>level)&1)<<1 | (z >> level & 1)
		q.parents[level] = ni
		ni = fc + int32(idx)
	}
	q.x, q.y, q.z = x, y, z
	q.endLevel = level // -1 after a full descent
	q.terminal = ni
	lo := t.nodes[ni].logOdds
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

// Prob returns the occupancy probability of the voxel containing p, and
// whether the voxel is known.
func (t *Tree) Prob(p geom.Vec3) (float64, bool) {
	x, y, z, ok := t.key(p)
	if !ok {
		return 1, true
	}
	lo, known := t.lookup(x, y, z)
	return 1 / (1 + math.Exp(-lo)), known
}

// MarkOccupied applies hit evidence at p (exposed for tests and fault
// scenarios).
func (t *Tree) MarkOccupied(p geom.Vec3) {
	if x, y, z, ok := t.key(p); ok {
		t.updateKey(x, y, z, t.params.LogOddsHit)
	}
}

// MarkFree applies miss evidence at p.
func (t *Tree) MarkFree(p geom.Vec3) {
	if x, y, z, ok := t.key(p); ok {
		t.updateKey(x, y, z, t.params.LogOddsMiss)
	}
}

// InsertRay integrates one range measurement: miss evidence along the ray
// from origin to end, and, when hit is true, hit evidence at the endpoint
// voxel. Traversal uses the Amanatides–Woo voxel-stepping algorithm.
//
// The endpoint voxel is identified from the endpoint itself (not the
// clipped walk), so a surface point landing exactly on a voxel boundary
// attributes its hit evidence to the voxel containing the surface.
//
// InsertRay is the single-ray form of InsertCloud: both run the same fused
// kernel (integrateRay), so one ray inserted either way leaves bit-identical
// evidence. Whole depth scans should go through InsertCloud, the mission
// loop's batching boundary. The independent per-voxel reference the fused
// kernel is checked against lives in the package tests.
func (t *Tree) InsertRay(origin, end geom.Vec3, hit bool) {
	t.integrateRay(origin, end, hit)
}

// integrateRay is the single evidence schedule both insertion paths share:
// miss evidence along the clipped walk (endpoint voxel excluded), then hit
// or miss evidence at the endpoint voxel. One body means InsertRay and
// InsertCloud cannot drift apart on the schedule their bit-identical
// equivalence depends on.
func (t *Tree) integrateRay(origin, end geom.Vec3, hit bool) {
	ex, ey, ez, endOK := t.key(end)
	var w rayWalker
	t.startWalk(&w, origin, end)
	if w.valid {
		t.carve(&w, ex, ey, ez, endOK)
	}
	if endOK {
		if hit {
			t.updateKey(ex, ey, ez, t.params.LogOddsHit)
		} else {
			t.updateKey(ex, ey, ez, t.params.LogOddsMiss)
		}
	}
}

// carve applies miss evidence to every voxel the seeded walk w crosses, in
// walk order, except the endpoint voxel (ex, ey, ez) when endOK. It is the
// rayWalker.next → updateKey → descend → applyDelta chain fused into one
// loop, which is where a sweep-exact mission spends most of its time: the
// DDA state, the memoised write path and the clamped miss update live in
// locals, nodes expand exactly where descend expands them, and the
// leaf-update and mutation counters advance once per ray instead of once per
// voxel. It visits the same voxels in the same order and expands the same
// nodes in the same order, so the arena, the summary counts and Digest are
// bit-identical to the chain; the randomized equivalence test against the
// chain (kept in the package tests) pins this.
//
// Keys the walker overshoots outside [0, maxKey) in the degenerate-axis case
// alias onto the leaf their low depth bits address, exactly as in descend
// (see occSummary).
func (t *Tree) carve(w *rayWalker, ex, ey, ez int, endOK bool) {
	miss := t.params.LogOddsMiss
	clampMin, clampMax, occ := t.params.ClampMin, t.params.ClampMax, t.params.OccThresh
	counts := t.sum.counts
	nodes := t.nodes
	parents := &t.path.parents
	top := t.depth - 1
	px, py, pz, leaf, cached := t.path.x, t.path.y, t.path.z, t.path.leaf, t.path.valid

	x, y, z := w.x, w.y, w.z
	tMaxX, tMaxY, tMaxZ := w.tMaxX, w.tMaxY, w.tMaxZ
	updates := 0
	for steps := 0; steps < w.maxSteps; steps++ {
		if !endOK || x != ex || y != ey || z != ez {
			// descend: resume below the highest key bit that differs from
			// the cached path, expanding leaves on the way down.
			if diff := (x ^ px) | (y ^ py) | (z ^ pz); !cached || diff != 0 {
				level, ni := top, int32(0)
				if cached {
					if hb := bits.Len(uint(diff)) - 1; hb < level {
						level, ni = hb, parents[hb]
					}
				}
				for ; level >= 0; level-- {
					fc := nodes[ni].firstChild
					if fc == noChild {
						t.expand(ni)
						nodes = t.nodes
						fc = nodes[ni].firstChild
					}
					parents[level] = ni
					ni = fc + int32(((x>>level)&1)<<2|((y>>level)&1)<<1|(z>>level&1))
				}
				px, py, pz, leaf, cached = x, y, z, ni, true
			}
			// applyDelta with the miss delta.
			n := &nodes[leaf]
			old := n.logOdds
			lo := geom.Clampf(old+miss, clampMin, clampMax)
			n.logOdds = lo
			if counts != nil {
				if wasOcc, isOcc := old != 0 && old >= occ, lo != 0 && lo >= occ; wasOcc != isOcc {
					if bi := t.summaryIndex(x, y, z); isOcc {
						counts[bi]++
					} else {
						counts[bi]--
					}
				}
			}
			updates++
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
	t.path.x, t.path.y, t.path.z, t.path.leaf, t.path.valid = px, py, pz, leaf, cached
	t.leafUpdates += updates
	t.mut += uint64(updates)
}

// rayWalker streams the leaf voxel keys a segment crosses, in order, without
// a per-ray closure allocation. The insertion paths (InsertRay, InsertCloud)
// and the DDA collision queries (SegmentFree, FirstBlocked) all seed their
// walks through it, and the loops that step the DDA on locals (carve,
// rayFree) copy next's stepping rule verbatim, so every segment↔voxel
// enumeration in the package visits bit-identical voxel sequences.
//
// tEntry is the parametric position (in the clipped p0→p1 space) at which
// the walk entered the voxel most recently yielded by next; segParam maps it
// back to the caller's original origin→end parameterisation. FirstBlocked
// uses this to report the exact boundary crossing into the first blocked
// voxel.
type rayWalker struct {
	x, y, z                   int
	ex, ey, ez                int
	stepX, stepY, stepZ       int
	tMaxX, tMaxY, tMaxZ       float64
	tDeltaX, tDeltaY, tDeltaZ float64
	steps, maxSteps           int
	valid                     bool
	tEntry                    float64 // clipped-space entry of the last yielded voxel
	tNext                     float64 // clipped-space entry of the upcoming voxel
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

// startWalkInside is startWalk for callers that have already established
// that both endpoints key inside the root volume (rayFree probes both before
// walking): it seeds the walk with exactly the fast path's (0, 1) clip —
// bit-identical voxel sequences — minus the two redundant endpoint probes
// and the slab-clip branch.
func (t *Tree) startWalkInside(w *rayWalker, origin, end geom.Vec3) {
	w.valid = false
	t.seedWalk(w, origin, end, 0, 1)
}

// seedWalk is the shared tail of the walk initialisers: nudge the clipped
// endpoints inward, key them, and set up the per-axis DDA state. Both
// entry points above go through this one body so the seeding arithmetic
// (the 1e-9 nudge, the Manhattan step bound) cannot drift between them.
func (t *Tree) seedWalk(w *rayWalker, origin, end geom.Vec3, t0, t1 float64) {
	d := end.Sub(origin)
	p0 := origin.Add(d.Scale(t0 + 1e-9))
	p1 := origin.Add(d.Scale(t1 - 1e-9))
	w.clipLo = t0 + 1e-9
	w.clipSpan = (t1 - 1e-9) - w.clipLo
	w.tEntry = 0
	w.tNext = 0

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
	w.steps = 0
	w.valid = true
}

// next yields the next voxel key on the walk; last flags the final voxel and
// ok is false once the walk is exhausted.
func (w *rayWalker) next() (x, y, z int, last, ok bool) {
	if !w.valid || w.steps >= w.maxSteps {
		return 0, 0, 0, false, false
	}
	w.steps++
	x, y, z = w.x, w.y, w.z
	w.tEntry = w.tNext
	if x == w.ex && y == w.ey && z == w.ez {
		w.valid = false
		return x, y, z, true, true
	}
	switch {
	case w.tMaxX <= w.tMaxY && w.tMaxX <= w.tMaxZ:
		w.x += w.stepX
		w.tNext = w.tMaxX
		w.tMaxX += w.tDeltaX
	case w.tMaxY <= w.tMaxZ:
		w.y += w.stepY
		w.tNext = w.tMaxY
		w.tMaxY += w.tDeltaY
	default:
		w.z += w.stepZ
		w.tNext = w.tMaxZ
		w.tMaxZ += w.tDeltaZ
	}
	return x, y, z, false, true
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

// NumLeaves counts allocated leaf nodes, a memory-footprint proxy.
func (t *Tree) NumLeaves() int {
	var count func(ni int32) int
	count = func(ni int32) int {
		fc := t.nodes[ni].firstChild
		if fc == noChild {
			return 1
		}
		total := 0
		for i := int32(0); i < 8; i++ {
			total += count(fc + i)
		}
		return total
	}
	return count(0)
}
