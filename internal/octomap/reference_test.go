package octomap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// refMap is the oracle the fused carve and the brick store are checked
// against: a plain map from masked leaf key to log-odds that shares no
// storage and no update code with the tree. Rays are walked with walkRay and
// every crossed voxel gets its clamped miss, one map write per voxel, before
// the endpoint gets its hit or miss; the summary counts and the classes are
// derived from the map when a test asks for them.
type refMap struct {
	p       Params
	mask    int
	vox     map[[3]int]float64
	updates int
}

func newRefMap(tr *Tree) *refMap {
	return &refMap{p: tr.params, mask: tr.maxKey - 1, vox: map[[3]int]float64{}}
}

// update applies one clamped evidence delta at the masked key.
func (r *refMap) update(x, y, z int, delta float64) {
	k := [3]int{x & r.mask, y & r.mask, z & r.mask}
	r.vox[k] = geom.Clampf(r.vox[k]+delta, r.p.ClampMin, r.p.ClampMax)
	r.updates++
}

// insertRay is InsertRay's evidence schedule, one voxel at a time.
func (r *refMap) insertRay(tr *Tree, origin, end geom.Vec3, hit bool) {
	ex, ey, ez, endOK := tr.key(end)
	tr.walkRay(origin, end, func(x, y, z int, _ bool) {
		if !endOK || x != ex || y != ey || z != ez {
			r.update(x, y, z, r.p.LogOddsMiss)
		}
	})
	if endOK {
		if hit {
			r.update(ex, ey, ez, r.p.LogOddsHit)
		} else {
			r.update(ex, ey, ez, r.p.LogOddsMiss)
		}
	}
}

// class classifies one oracle value.
func (r *refMap) class(lo float64) Occupancy {
	switch {
	case lo == 0:
		return Unknown
	case lo >= r.p.OccThresh:
		return Occupied
	}
	return Free
}

// assertMatchesOracle requires tr to hold exactly the oracle's map: the same
// leaf-update total, bit-identical log-odds in every voxel (and nothing
// non-zero anywhere else), the summary counts the oracle's classes imply,
// and the oracle's class in every classification-grid byte.
func assertMatchesOracle(t *testing.T, tr *Tree, ref *refMap, when string) {
	t.Helper()
	if tr.LeafUpdates() != ref.updates {
		t.Fatalf("%s: leaf updates: tree %d, oracle %d", when, tr.LeafUpdates(), ref.updates)
	}
	// Every non-zero voxel of the tree is an oracle voxel with the same bits,
	// and the tree has as many non-zero voxels as the oracle.
	treeKnown, refKnown := 0, 0
	tr.eachCell(func(cell int, vals *[brickVoxels]float64) {
		for i, g := range vals {
			if g == 0 {
				continue
			}
			k := voxelKey(tr, cell, i)
			if w, ok := ref.vox[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: voxel %v: tree %v, oracle %v (written %v)", when, k, g, w, ok)
			}
			treeKnown++
		}
	})
	for _, w := range ref.vox {
		if w != 0 {
			refKnown++
		}
	}
	if treeKnown != refKnown {
		t.Fatalf("%s: tree holds %d non-zero voxels, oracle %d", when, treeKnown, refKnown)
	}

	nc := tr.maxKey / 8
	if nc == 0 {
		nc = 1
	}
	if cells := nc * nc * nc; cells > maxDenseCells {
		if tr.sum.layers != nil {
			t.Fatalf("%s: summary armed over the cap (%d cells)", when, cells)
		}
	} else {
		// The words cover the cell layers that reach into the bounds' z
		// extent; one count holds the Occupied voxels above them.
		layers, above := make([]uint64, (tr.nz+7)/8*nc*nc), 0
		for k, v := range ref.vox {
			if ref.class(v) == Occupied {
				if c := ((k[2]/8)*nc+k[1]/8)*nc + k[0]/8; c < len(layers) {
					layers[c] += layerUnit(k[2])
				} else {
					above++
				}
			}
		}
		if len(tr.sum.layers) != len(layers) || tr.sum.above != above {
			t.Fatalf("%s: summary has %d cells and %d above, want %d and %d", when, len(tr.sum.layers), tr.sum.above, len(layers), above)
		}
		for i, w := range layers {
			if tr.sum.layers[i] != w {
				t.Fatalf("%s: summary cell %d: tree %016x, oracle %016x", when, i, tr.sum.layers[i], w)
			}
		}
	}

	if tr.grid == nil {
		t.Fatalf("%s: test world has no classification grid", when)
	}
	known := 0
	for k, v := range ref.vox {
		if k[0] >= tr.nx || k[1] >= tr.ny || k[2] >= tr.nz {
			continue
		}
		want := ref.class(v)
		if g := Occupancy(tr.grid[(k[2]*tr.ny+k[1])*tr.nx+k[0]]); g != want {
			t.Fatalf("%s: grid byte of %v: %v, oracle %v", when, k, g, want)
		}
		if want != Unknown {
			known++
		}
	}
	nonzero := 0
	for _, b := range tr.grid {
		if b != 0 {
			nonzero++
		}
	}
	if nonzero != known {
		t.Fatalf("%s: grid holds %d known voxels, oracle %d", when, nonzero, known)
	}
}

// walkRay visits every leaf voxel key from origin to end in order, flagging
// the final voxel: the walker's enumeration as a callback, for the DDA tests.
func (t *Tree) walkRay(origin, end geom.Vec3, visit func(x, y, z int, last bool)) {
	var w seqWalker
	t.startWalk(&w.rayWalker, origin, end)
	for {
		x, y, z, last, ok := w.next()
		if !ok {
			return
		}
		visit(x, y, z, last)
	}
}

// flipBit returns f with one bit of its IEEE-754 representation flipped, the
// corruption the KernelOctoMap fault hook applies to scan endpoints.
func flipBit(f float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(f) ^ 1<<bit)
}

// referenceScans builds the randomized scan schedule the fused-vs-oracle
// test feeds a tree over a volume of the given size at the origin: mission-
// like scans from moving origins, with every ray class the fused carve must
// handle like the per-voxel loop —
//   - endpoints with flipped bits (mantissa, exponent and sign), as the
//     KernelOctoMap hook produces;
//   - rays that start or end outside the volume, so the walk is slab-clipped,
//     and rays that miss it entirely;
//   - the degenerate-axis overshoot rays whose walker overruns the key cube
//     (in a 16 m cube) and whose evidence aliases onto masked keys;
//   - repeated rays that drive voxels to both clamps.
func referenceScans(rng *rand.Rand, size geom.Vec3) []refScan {
	var scans []refScan
	for s := 0; s < 6; s++ {
		origin := geom.V(rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z)
		pts := randomScan(rng, origin, 80)
		for i := range pts {
			if rng.Intn(8) == 0 {
				p := &pts[i].End
				switch bit := uint(rng.Intn(64)); rng.Intn(3) {
				case 0:
					p.X = flipBit(p.X, bit)
				case 1:
					p.Y = flipBit(p.Y, bit)
				default:
					p.Z = flipBit(p.Z, bit)
				}
			}
		}
		scans = append(scans, refScan{origin, pts})
	}
	// Slab-clipped rays: origin outside, endpoint inside, and the reverse,
	// plus a ray that never meets the volume.
	mid := size.Scale(0.5)
	out := geom.V(-3, mid.Y, size.Z/3)
	scans = append(scans, refScan{out, []RayPoint{
		{End: mid, Hit: true},
		{End: geom.V(size.X+4, size.Y/3, mid.Z), Hit: false},
		{End: geom.V(-9, -9, -9), Hit: true},
	}})
	scans = append(scans, refScan{mid, []RayPoint{
		{End: geom.V(size.X+7, mid.Y, size.Z/4), Hit: true},
		{End: geom.V(size.X/3, -6, mid.Z), Hit: false},
	}})
	// Degenerate-axis overshoot rays (the summary aliasing cases).
	scans = append(scans,
		refScan{geom.V(5.25, 6.0-4e-13, 1.2), []RayPoint{{End: geom.V(5.25, 6.0+4e-13, 0.1), Hit: true}}},
		refScan{geom.V(0.25, 6.0-4e-13, 15.8), []RayPoint{{End: geom.V(0.25, 6.0+4e-13, 15.95), Hit: true}}},
	)
	// Clamp saturation: the same rays repeated until hits saturate the upper
	// clamp at the endpoints and misses the lower clamp along the way, then
	// misses fired into the saturated endpoints to pull them back down.
	origin := geom.V(1.25, 1.25, 1.25)
	var hits, misses []RayPoint
	for i := 0; i < 5; i++ {
		end := geom.V(1.25+float64(i)*2.5, size.Y-1.75, mid.Z+0.25)
		for rep := 0; rep < 12; rep++ {
			hits = append(hits, RayPoint{End: end, Hit: true})
			misses = append(misses, RayPoint{End: end, Hit: false})
		}
	}
	scans = append(scans, refScan{origin, hits}, refScan{origin, misses}, refScan{origin, hits})
	return scans
}

type refScan struct {
	origin geom.Vec3
	pts    []RayPoint
}

// TestFusedCarveMatchesReference is the equivalence gate for the fused
// carve and the brick store: the same randomized scans fed to a tree through
// InsertCloud (and, on alternate scans, InsertRay) and to the map oracle
// must leave, after every scan, the same leaf-update total, bit-identical
// log-odds in every voxel, exact summary counts and exact classification
// bytes. It runs on a 16 m cube, whose key cube the overshoot rays overrun,
// and on a 600 m corridor whose 2^24-cell brick grid is over maxDenseCells,
// so its bricks are keyed through the map and it has no summary. Dropping,
// duplicating or misaddressing a single voxel update, summary update or grid
// write fails it.
func TestFusedCarveMatchesReference(t *testing.T) {
	worlds := []struct {
		name   string
		bounds geom.AABB
		trials int
		dense  bool // the brick index is the dense slice, not the map
	}{
		{"16 m cube", geom.Box(geom.V(0, 0, 0), geom.V(16, 16, 16)), 12, true},
		{"corridor over the dense-index cap", geom.Box(geom.V(0, 0, 0), geom.V(600, 40, 20)), 2, false},
	}
	rng := rand.New(rand.NewSource(12))
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			for trial := 0; trial < w.trials; trial++ {
				tr := New(w.bounds, 0.5, DefaultParams())
				if dense := tr.store.index != nil; dense != w.dense {
					t.Fatalf("dense brick index = %v in the %s", dense, w.name)
				}
				ref := newRefMap(tr)
				for i, sc := range referenceScans(rng, w.bounds.Size()) {
					if i%2 == 0 {
						tr.InsertCloud(sc.origin, sc.pts)
					} else {
						for _, p := range sc.pts {
							tr.InsertRay(sc.origin, p.End, p.Hit)
						}
					}
					for _, p := range sc.pts {
						ref.insertRay(tr, sc.origin, p.End, p.Hit)
					}
					assertMatchesOracle(t, tr, ref, fmt.Sprintf("trial %d scan %d", trial, i))
				}
				p := DefaultParams()
				var atMin, atMax bool
				for _, lo := range ref.vox {
					atMin = atMin || lo == p.ClampMin
					atMax = atMax || lo == p.ClampMax
				}
				if !atMin || !atMax {
					t.Fatalf("trial %d: scans never reached both clamps (min %v, max %v)", trial, atMin, atMax)
				}
			}
		})
	}
}

// TestCarveRetiresCachedClassifications pins the class-grid write on the
// carve path: a ray whose endpoint lies outside the volume changes the map
// through its carve alone — no endpoint update — and must flip the grid
// byte of an occupied voxel it carves through to Free, or the planners are
// served the map as it was.
func TestCarveRetiresCachedClassifications(t *testing.T) {
	tr := newTestTree()
	origin, out := geom.V(2.25, 10.25, 4.25), geom.V(40.25, 10.25, 4.25) // ends past x = 32
	v := geom.V(10.25, 10.25, 4.25)
	tr.InsertRay(origin, out, false) // allocates every brick on the path
	tr.MarkOccupied(v)
	x, y, z, _ := tr.key(v)
	gridAt := func() Occupancy { return Occupancy(tr.grid[(z*tr.ny+y)*tr.nx+x]) }
	if got := gridAt(); got != Occupied || tr.At(v) != Occupied {
		t.Fatalf("setup: grid byte %v, At %v, want Occupied", got, tr.At(v))
	}
	for i := 0; i < 3; i++ {
		tr.InsertRay(origin, out, false)
	}
	p, _ := tr.Prob(v)
	if got := gridAt(); got != Free || tr.At(v) != Free || p >= 0.5 {
		t.Fatalf("after carving through v: grid byte %v, At %v (p = %v), want Free", got, tr.At(v), p)
	}
}
