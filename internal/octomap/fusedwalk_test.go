package octomap

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// segmentFreeSeq is the pre-PR5 per-ray SegmentFree, retained verbatim as
// the sequential reference of the fused-vs-sequential equivalence gate: one
// independent rayFree walk per probe ray, centre first, then the offsets in
// probeOffsets order.
func segmentFreeSeq(t *Tree, a, b geom.Vec3, q QueryPolicy) bool {
	if !t.rayFree(a, b, q) {
		return false
	}
	if q.Radius <= 0 {
		return true
	}
	for _, d := range probeOffsets(q.Radius) {
		if !t.rayFree(a.Add(d), b.Add(d), q) {
			return false
		}
	}
	return true
}

// firstBlockedSeq is the pre-PR5 per-ray FirstBlocked reference.
func firstBlockedSeq(t *Tree, a, b geom.Vec3, q QueryPolicy) (float64, bool) {
	first := math.Inf(1)
	if f, blocked := t.rayFirstBlocked(a, b, q); blocked {
		first = f
	}
	if q.Radius > 0 {
		for _, d := range probeOffsets(q.Radius) {
			if f, blocked := t.rayFirstBlocked(a.Add(d), b.Add(d), q); blocked && f < first {
				first = f
			}
		}
	}
	if math.IsInf(first, 1) {
		return 0, false
	}
	return first, true
}

// seqWalker is rayWalker with the per-voxel iterator the sequential
// references walk with: next yields one voxel per call and records the walk
// parameter at which the walk entered it.
type seqWalker struct {
	rayWalker
	steps  int     // voxels yielded so far
	tEntry float64 // clipped-space entry of the last yielded voxel
	tNext  float64 // clipped-space entry of the upcoming voxel
}

// next yields the next voxel key on the walk; last flags the final voxel and
// ok is false once the walk is exhausted.
func (w *seqWalker) next() (x, y, z int, last, ok bool) {
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

// startWalkInside is startWalk for callers that have already established
// that both endpoints key inside the root volume (rayFree probes both before
// walking): it seeds the walk with exactly the fast path's (0, 1) clip —
// bit-identical voxel sequences — minus the two redundant endpoint probes
// and the slab-clip branch.
func (t *Tree) startWalkInside(w *rayWalker, origin, end geom.Vec3) {
	w.valid = false
	t.seedWalk(w, origin, end, 0, 1)
}

// rayFree reports whether every voxel crossed by the single segment a→b is
// unblocked, with the whole segment inside the mapped volume.
//
// It is the per-ray reference segmentFreeSeq walks: production queries run
// the fused walkFree, which the equivalence suite holds to it bit for bit.
func (t *Tree) rayFree(a, b geom.Vec3, q QueryPolicy) bool {
	ax, ay, az, aIn := t.key(a)
	if !aIn {
		return false
	}
	if _, _, _, bIn := t.key(b); !bIn {
		// The volume is convex: an endpoint outside means part of the
		// segment crosses out-of-volume (Occupied) space.
		return false
	}
	if q.blocked(t.classify(ax, ay, az)) {
		return false
	}
	if a == b {
		return true
	}
	var w rayWalker
	t.startWalkInside(&w, a, b) // both endpoints key inside, checked above
	if !w.valid {
		return true
	}
	// The DDA stepping below is rayWalker.next manually inlined on locals
	// (next is beyond the inliner's budget and this loop classifies one
	// voxel per step across up to seven rays per query): identical yield
	// order, identical guards, so the voxel sequence is bit-identical to
	// the walker's.
	x, y, z := w.x, w.y, w.z
	tMaxX, tMaxY, tMaxZ := w.tMaxX, w.tMaxY, w.tMaxZ
	tNext := 0.0
	for steps := 0; steps < w.maxSteps; steps++ {
		tEntry := tNext
		if tEntry > 1+1e-9 || x < 0 || y < 0 || z < 0 || x >= t.maxKey || y >= t.maxKey || z >= t.maxKey {
			// Walker overshoot artifact, not a crossed voxel: a near-zero
			// axis delta below the DDA threshold (step 0) with endpoints
			// straddling that axis's voxel boundary makes the end key
			// unreachable, and the walk spends its defensive step budget
			// drifting past the segment end (a genuinely crossed voxel is
			// entered at parameter ≤ 1 and in-range, and the end voxel
			// terminates the walk before either guard can trip).
			return true
		}
		if q.blocked(t.classify(x, y, z)) {
			return false
		}
		if x == w.ex && y == w.ey && z == w.ez {
			return true // end voxel reached, walk exhausted
		}
		switch {
		case tMaxX <= tMaxY && tMaxX <= tMaxZ:
			x += w.stepX
			tNext = tMaxX
			tMaxX += w.tDeltaX
		case tMaxY <= tMaxZ:
			y += w.stepY
			tNext = tMaxY
			tMaxY += w.tDeltaY
		default:
			z += w.stepZ
			tNext = tMaxZ
			tMaxZ += w.tDeltaZ
		}
	}
	return true
}

// rayFirstBlocked returns the parametric position along the single segment
// a→b at which the ray first enters blocked (or out-of-volume) space, and
// whether any such position exists.
//
// It is the per-ray reference firstBlockedSeq walks, one voxel per next()
// call and with no summary: production queries run the fused
// firstBlockedWalk, which the equivalence suite holds to it bit for bit.
func (t *Tree) rayFirstBlocked(a, b geom.Vec3, q QueryPolicy) (float64, bool) {
	ax, ay, az, aIn := t.key(a)
	if !aIn {
		return 0, true // starts in out-of-volume (Occupied) space
	}
	if q.blocked(t.classify(ax, ay, az)) {
		return 0, true // starts inside a blocked voxel
	}
	if a == b {
		return 0, false
	}
	var w seqWalker
	t.startWalk(&w.rayWalker, a, b)
	for {
		x, y, z, _, ok := w.next()
		if !ok {
			break
		}
		if w.tEntry > 1+1e-9 || x < 0 || y < 0 || z < 0 || x >= t.maxKey || y >= t.maxKey || z >= t.maxKey {
			break // walker overshoot artifact; see rayFree
		}
		if q.blocked(t.classify(x, y, z)) {
			return w.segParam(w.tEntry), true
		}
	}
	if _, _, _, bIn := t.key(b); !bIn {
		// The walk ran clean to the volume boundary, but the segment exits
		// the volume there: the crossing into out-of-volume space is the
		// first collision.
		return w.segParam(1), true
	}
	return 0, false
}

// fusedTestPolicies are the policies the equivalence suite sweeps: the
// pipeline's optimistic navigation policy, a pessimistic variant (unknown
// blocks, so the occupancy summary must stand aside), and a zero-radius
// probe (centre ray only).
var fusedTestPolicies = []QueryPolicy{
	{UnknownIsFree: true, Radius: 0.55},
	{UnknownIsFree: false, Radius: 0.55},
	{UnknownIsFree: true, Radius: 0},
}

// fusedTestSegments draws the segment mix the suite probes: interior
// segments like the planner's, plus near-boundary segments whose offset
// rays leave the volume (exercising the out-of-volume early exits and the
// slab-clipped walk) and degenerate zero-length probes.
func fusedTestSegments(rng *rand.Rand, n int) [][2]geom.Vec3 {
	segs := make([][2]geom.Vec3, 0, n)
	for i := 0; i < n; i++ {
		var a, b geom.Vec3
		switch i % 5 {
		case 0, 1, 2: // interior, RRT*-edge-length
			a = randomInteriorPoint(rng)
			b = a.Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()*0.4).Normalize().Scale(rng.Float64()*4 + 0.5))
		case 3: // hugging the volume boundary: offset rays key outside
			a = geom.V(rng.Float64()*2+0.1, rng.Float64()*30+1, rng.Float64()*0.4+0.1)
			b = a.Add(geom.V(rng.Float64()*6-3, rng.Float64()*6-3, rng.Float64()*1.5))
		default: // crossing out of the volume, or zero length
			a = randomInteriorPoint(rng)
			if rng.Intn(2) == 0 {
				b = a
			} else {
				b = a.Add(geom.V(40, rng.Float64()*4-2, 0))
			}
		}
		segs = append(segs, [2]geom.Vec3{a, b})
	}
	return segs
}

// TestFusedMatchesSequentialRandomized is the PR 5 equivalence gate on
// results: across the query_test.go worlds, every policy, and a
// boundary-heavy segment mix, the fused SegmentFree/FirstBlocked (occupancy
// summary active) must reproduce the sequential per-ray reference
// bit-for-bit, fraction bits included.
func TestFusedMatchesSequentialRandomized(t *testing.T) {
	for _, seed := range []int64{21, 31, 41, 77} {
		tr := queryTestTree(seed)
		rng := rand.New(rand.NewSource(seed + 1000))
		segs := fusedTestSegments(rng, 500)
		for _, q := range fusedTestPolicies {
			for si, s := range segs {
				gotFree := tr.SegmentFree(s[0], s[1], q)
				wantFree := segmentFreeSeq(tr, s[0], s[1], q)
				if gotFree != wantFree {
					t.Fatalf("seed %d seg %d policy %+v: fused SegmentFree=%v sequential=%v (%v→%v)",
						seed, si, q, gotFree, wantFree, s[0], s[1])
				}
				gotF, gotOK := tr.FirstBlocked(s[0], s[1], q)
				wantF, wantOK := firstBlockedSeq(tr, s[0], s[1], q)
				if gotOK != wantOK || math.Float64bits(gotF) != math.Float64bits(wantF) {
					t.Fatalf("seed %d seg %d policy %+v: fused FirstBlocked=(%v,%v) sequential=(%v,%v) (%v→%v)",
						seed, si, q, gotF, gotOK, wantF, wantOK, s[0], s[1])
				}
			}
		}
	}
}

// recordProbes runs fn with the classification-probe recorder armed and the
// classification grid set aside, so every probe funnels through the recorded
// brick path, and returns the exact probe sequence fn caused. The grid is
// restored afterwards; fn must not mutate the tree.
func recordProbes(tr *Tree, fn func()) [][3]int {
	var rec [][3]int
	grid := tr.grid
	tr.grid = nil
	tr.probeRec = func(x, y, z int) { rec = append(rec, [3]int{x, y, z}) }
	fn()
	tr.probeRec = nil
	tr.grid = grid
	return rec
}

// TestFusedProbeSequenceMatchesSequential pins the fused walker's traversal
// itself, not just its answers: with the occupancy summary disarmed (so
// nothing is elided) the fused queries must classify exactly the voxels the
// sequential reference classifies, in exactly the same order. recordProbes
// sets the grid aside so every classification is recorded, and the test
// requires the recordings to be non-empty, so it cannot pass vacuously.
func TestFusedProbeSequenceMatchesSequential(t *testing.T) {
	tr := queryTestTree(51)
	savedLayers := tr.sum.layers
	tr.sum.layers = nil // disarm the summary: fused must probe like sequential
	defer func() { tr.sum.layers = savedLayers }()
	rng := rand.New(rand.NewSource(52))
	segs := fusedTestSegments(rng, 300)
	recorded := 0
	for _, q := range fusedTestPolicies {
		for si, s := range segs {
			var gotFree, wantFree bool
			fused := recordProbes(tr, func() { gotFree = tr.SegmentFree(s[0], s[1], q) })
			seq := recordProbes(tr, func() { wantFree = segmentFreeSeq(tr, s[0], s[1], q) })
			if gotFree != wantFree {
				t.Fatalf("seg %d policy %+v: SegmentFree fused=%v sequential=%v", si, q, gotFree, wantFree)
			}
			assertSameProbes(t, "SegmentFree", si, q, fused, seq)
			recorded += len(fused)

			var gotF, wantF float64
			var gotOK, wantOK bool
			fused = recordProbes(tr, func() { gotF, gotOK = tr.FirstBlocked(s[0], s[1], q) })
			seq = recordProbes(tr, func() { wantF, wantOK = firstBlockedSeq(tr, s[0], s[1], q) })
			if gotOK != wantOK || math.Float64bits(gotF) != math.Float64bits(wantF) {
				t.Fatalf("seg %d policy %+v: FirstBlocked fused=(%v,%v) sequential=(%v,%v)", si, q, gotF, gotOK, wantF, wantOK)
			}
			assertSameProbes(t, "FirstBlocked", si, q, fused, seq)
			recorded += len(fused)
		}
	}
	if recorded == 0 {
		t.Fatal("no probe was recorded: the comparison above was vacuous")
	}
}

func assertSameProbes(t *testing.T, what string, si int, q QueryPolicy, fused, seq [][3]int) {
	t.Helper()
	if len(fused) != len(seq) {
		t.Fatalf("seg %d policy %+v: %s probe counts diverge: fused %d sequential %d",
			si, q, what, len(fused), len(seq))
	}
	for i := range fused {
		if fused[i] != seq[i] {
			t.Fatalf("seg %d policy %+v: %s probe %d diverges: fused %v sequential %v",
				si, q, what, i, fused[i], seq[i])
		}
	}
}

// TestSummaryElisionAlignment pins the summary's elision invariant: with
// the summary armed, the probe sequence of a query must be exactly the
// unarmed sequence with zero or more probes elided, every elided probe must
// lie in a (block, z-layer) slab with no Occupied voxel, and the answers
// must stay bit-identical. SegmentFree's prescan elides either nothing or a
// whole query; FirstBlocked's block skip elides the runs of probes a walk
// makes in blocks whose crossed layers are empty, in the middle of a walk,
// which the look-ahead rays (10–60 m) reach. The map has its floor mapped,
// so the bottom block layer is non-zero everywhere and the queries through
// it elide only by layer. The test verifies every probe rather than
// trusting the range analysis or the block-skip argument. The unarmed
// recordings must be non-empty, each query must have probes elided, in
// blocks with Occupied voxels among them, and FirstBlocked must elide some
// in the middle of a walk, so the test cannot pass vacuously.
func TestSummaryElisionAlignment(t *testing.T) {
	tr := queryTestTree(61)
	if tr.sum.layers == nil {
		t.Fatal("test tree unexpectedly over the summary cap")
	}
	tr.InsertCloud(groundScan(geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))))
	rng := rand.New(rand.NewSource(62))
	segs := append(fusedTestSegments(rng, 400), lookaheadSegments(rng, 200)...)
	segs = append(segs, cruiseSegments(rng, 300)...)
	q := testPolicy // the optimistic policy is the only one the summary serves
	plainProbes, elidedSeg, elidedFirst, midWalk, layeredSeg, layeredFirst := 0, 0, 0, 0, 0, 0
	for si, s := range segs {
		savedLayers := tr.sum.layers

		var sumFree bool
		withSum := recordProbes(tr, func() { sumFree = tr.SegmentFree(s[0], s[1], q) })
		tr.sum.layers = nil
		var plainFree bool
		plain := recordProbes(tr, func() { plainFree = tr.SegmentFree(s[0], s[1], q) })
		tr.sum.layers = savedLayers

		if sumFree != plainFree {
			t.Fatalf("seg %d: SegmentFree with summary=%v without=%v", si, sumFree, plainFree)
		}
		layeredSeg += assertElisionAligned(t, tr, "SegmentFree", si, withSum, plain)
		plainProbes += len(plain)
		elidedSeg += len(plain) - len(withSum)

		var sumF, plainF float64
		var sumOK, plainOK bool
		withSum = recordProbes(tr, func() { sumF, sumOK = tr.FirstBlocked(s[0], s[1], q) })
		tr.sum.layers = nil
		plain = recordProbes(tr, func() { plainF, plainOK = tr.FirstBlocked(s[0], s[1], q) })
		tr.sum.layers = savedLayers

		if sumOK != plainOK || math.Float64bits(sumF) != math.Float64bits(plainF) {
			t.Fatalf("seg %d: FirstBlocked with summary=(%v,%v) without=(%v,%v)", si, sumF, sumOK, plainF, plainOK)
		}
		layeredFirst += assertElisionAligned(t, tr, "FirstBlocked", si, withSum, plain)
		plainProbes += len(plain)
		elidedFirst += len(plain) - len(withSum)
		if len(withSum) > 0 && len(withSum) < len(plain) {
			midWalk++ // some probes kept, some elided: the walk stepped over blocks
		}
	}
	if plainProbes == 0 || elidedSeg == 0 || elidedFirst == 0 || midWalk == 0 || layeredSeg == 0 || layeredFirst == 0 {
		t.Fatalf("vacuous run: %d probes recorded, %d elided by SegmentFree's prescan (%d in occupied blocks), "+
			"%d by FirstBlocked (%d in occupied blocks), %d FirstBlocked queries elided mid-walk",
			plainProbes, elidedSeg, layeredSeg, elidedFirst, layeredFirst, midWalk)
	}
}

// cruiseSegments draws planner-length segments and look-ahead rays in the
// band a vehicle cruises in, 1.2–3.5 m over the floor: inside the bottom
// block layer, above its mapped ground.
func cruiseSegments(rng *rand.Rand, n int) [][2]geom.Vec3 {
	segs := make([][2]geom.Vec3, 0, n)
	for len(segs) < n {
		a := geom.V(rng.Float64()*28+2, rng.Float64()*28+2, 1.2+rng.Float64()*2.3)
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()*0.05).Normalize()
		length := 1 + rng.Float64()*4
		if len(segs)%2 == 1 {
			length = 10 + rng.Float64()*20
		}
		segs = append(segs, [2]geom.Vec3{a, a.Add(dir.Scale(length))})
	}
	return segs
}

// assertElisionAligned checks withSum is plain with elisions only, each
// elided probe falling in a (block, layer) slab with no Occupied voxel, and
// returns how many elided probes lie in blocks that do hold Occupied voxels
// in other layers: the elisions only the layers allow.
func assertElisionAligned(t *testing.T, tr *Tree, what string, si int, withSum, plain [][3]int) (layered int) {
	t.Helper()
	j := 0
	for _, p := range plain {
		if j < len(withSum) && withSum[j] == p {
			j++
			continue
		}
		// Elided probe: must be provably unoccupied via the summary.
		w := tr.sum.word(tr.cell(p[0], p[1], p[2]))
		if n := uint8(w >> (8 * (p[2] & 7))); n != 0 {
			t.Fatalf("seg %d: %s elided probe %v sits in a block layer with %d occupied voxels", si, what, p, n)
		}
		if w != 0 {
			layered++
		}
	}
	if j != len(withSum) {
		t.Fatalf("seg %d: %s summarised sequence is not a subsequence: %d/%d probes matched",
			si, what, j, len(withSum))
	}
	return layered
}
