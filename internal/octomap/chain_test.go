package octomap

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// homeOf names the home of the voxel at in-bounds key (x, y, z): its
// miss-chain step, or inBrick.
func homeOf(tr *Tree, x, y, z int) uint8 { return tr.codes[(z*tr.ny+y)*tr.nx+x] }

// homeCounts counts a tree's voxels of the bounds past step 0 of the chain
// and its voxels in bricks.
func homeCounts(tr *Tree) (chained, bricked int) {
	for _, c := range tr.codes {
		switch c {
		case 0:
		case inBrick:
			bricked++
		default:
			chained++
		}
	}
	return chained, bricked
}

// oracleTwin is a tree and the map oracle, fed the same evidence.
type oracleTwin struct {
	tr  *Tree
	ref *refMap
}

func newOracleTwin(bounds geom.AABB, p Params) oracleTwin {
	tr := New(bounds, 0.5, p)
	return oracleTwin{tr, newRefMap(tr)}
}

// insert integrates a scan n times over, in one InsertCloudN call on the
// tree and n passes of single updates on the oracle.
func (o oracleTwin) insert(origin geom.Vec3, pts []RayPoint, n int) {
	o.tr.InsertCloudN(origin, pts, n)
	for range n {
		for _, p := range pts {
			o.ref.insertRay(o.tr, origin, p.End, p.Hit)
		}
	}
}

// TestMissChainHomesMatchReference drives voxels through every transition
// between the two homes, and trees whose params keep the chain off, against
// the map oracle: the same leaf-update total, bit-identical values, exact
// summary counts and grid bytes after every step. Each case also checks
// that the voxels it is about ended in the home the rules give them.
func TestMissChainHomesMatchReference(t *testing.T) {
	cube := geom.Box(geom.V(0, 0, 0), geom.V(16, 16, 16))
	p := DefaultParams()
	last := uint8(len(missChain(nil, p)) - 1)
	if last != 5 {
		t.Fatalf("default miss chain has fixed point at step %d, want 5", last)
	}
	origin, v := geom.V(1.25, 8.25, 8.25), geom.V(9.25, 8.25, 8.25)
	through := []RayPoint{{End: geom.V(14.25, 8.25, 8.25), Hit: false}} // crosses v
	onto := []RayPoint{{End: v, Hit: true}}

	t.Run("hit on a chain voxel", func(t *testing.T) {
		o := newOracleTwin(cube, p)
		o.insert(origin, through, 1)
		x, y, z, _ := o.tr.key(v)
		if got := homeOf(o.tr, x, y, z); got != 1 {
			t.Fatalf("after one carve v is at code %d, want chain step 1", got)
		}
		if o.tr.NumLeaves() != 0 {
			t.Fatalf("a carve inside the bounds allocated %d brick slots", o.tr.NumLeaves())
		}
		assertMatchesOracle(t, o.tr, o.ref, "carved")
		o.insert(origin, onto, 1)
		if got := homeOf(o.tr, x, y, z); got != inBrick {
			t.Fatalf("after a hit v is at code %d, want inBrick", got)
		}
		assertMatchesOracle(t, o.tr, o.ref, "hit")
		o.insert(origin, through, 1) // a miss on a brick voxel stays there
		if got := homeOf(o.tr, x, y, z); got != inBrick {
			t.Fatalf("a miss moved v back to code %d", got)
		}
		assertMatchesOracle(t, o.tr, o.ref, "carved again")
	})

	t.Run("carved to ClampMin then hit", func(t *testing.T) {
		o := newOracleTwin(cube, p)
		x, y, z, _ := o.tr.key(v)
		for i := 1; i <= 8; i++ {
			o.insert(origin, through, 1)
			if got, want := homeOf(o.tr, x, y, z), min(uint8(i), last); got != want {
				t.Fatalf("after %d carves v is at code %d, want %d", i, got, want)
			}
			assertMatchesOracle(t, o.tr, o.ref, fmt.Sprintf("carve %d", i))
		}
		if lo, _ := o.tr.lookup(x, y, z); lo != p.ClampMin {
			t.Fatalf("fixed point of the chain is %v, want ClampMin %v", lo, p.ClampMin)
		}
		o.insert(origin, onto, 1)
		assertMatchesOracle(t, o.tr, o.ref, "hit at ClampMin")
		o.insert(origin, through, 4)
		assertMatchesOracle(t, o.tr, o.ref, "carved four times after the hit")
	})

	t.Run("carving outside the bounds", func(t *testing.T) {
		// The key cube of a 16×12×10 m box is 16 m: keys y >= 24 or z >= 20
		// are inside it but outside the bounds, so they live in bricks.
		box := geom.Box(geom.V(0, 0, 0), geom.V(16, 12, 10))
		o := newOracleTwin(box, p)
		pts := []RayPoint{
			{End: geom.V(8.25, 15.25, 5.25), Hit: false}, // ends past y = 12
			{End: geom.V(3.25, 14.75, 13.25), Hit: true}, // ends past both
			{End: geom.V(12.25, 2.25, 9.25), Hit: false}, // stays inside
		}
		o.insert(geom.V(8.25, 6.25, 5.25), pts, 1)
		o.insert(geom.V(8.25, 6.25, 5.25), pts, 3)
		assertMatchesOracle(t, o.tr, o.ref, "after the scans")
		outside := 0
		for k := range o.ref.vox {
			if k[0] >= o.tr.nx || k[1] >= o.tr.ny || k[2] >= o.tr.nz {
				outside++
				if o.tr.store.slot(o.tr.cell(k[0], k[1], k[2])) == 0 {
					t.Fatalf("voxel %v outside the bounds has no brick", k)
				}
			}
		}
		if outside == 0 {
			t.Fatal("no ray reached past the bounds")
		}
		if chained, _ := homeCounts(o.tr); chained == 0 {
			t.Fatal("no voxel of the bounds is on the chain")
		}
	})

	t.Run("InsertCloudN with marks", func(t *testing.T) {
		rng := rand.New(rand.NewSource(18))
		for n := 1; n <= 5; n++ {
			o := newOracleTwin(cube, p)
			for s := 0; s < 4; s++ {
				at := geom.V(rng.Float64()*16, rng.Float64()*16, rng.Float64()*16)
				o.insert(at, throughHitScan(rng, at, 120), n)
				assertMatchesOracle(t, o.tr, o.ref, fmt.Sprintf("n=%d scan %d", n, s))
			}
			if chained, bricked := homeCounts(o.tr); chained == 0 || bricked == 0 {
				t.Fatalf("n=%d: %d chain and %d brick voxels, want both homes used", n, chained, bricked)
			}
		}
	})

	for _, c := range []struct {
		name  string
		p     Params
		chain bool
	}{
		{"LogOddsMiss > 0", Params{LogOddsHit: 0.85, LogOddsMiss: 0.2, ClampMin: -2, ClampMax: 3.5, OccThresh: 0.5}, false},
		{"OccThresh < 0", Params{LogOddsHit: p.LogOddsHit, LogOddsMiss: p.LogOddsMiss, ClampMin: p.ClampMin, ClampMax: p.ClampMax, OccThresh: -0.5}, false},
		{"chain over 254 steps", Params{LogOddsHit: p.LogOddsHit, LogOddsMiss: -0.001, ClampMin: p.ClampMin, ClampMax: p.ClampMax}, false},
		{"a 200-step chain", Params{LogOddsHit: p.LogOddsHit, LogOddsMiss: -0.01, ClampMin: p.ClampMin, ClampMax: p.ClampMax}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := newOracleTwin(cube, c.p)
			if on := o.tr.codes != nil; on != c.chain {
				t.Fatalf("chain on = %v, want %v", on, c.chain)
			}
			rng := rand.New(rand.NewSource(19))
			for i, sc := range referenceScans(rng, cube.Size()) {
				o.insert(sc.origin, sc.pts, 1+i%3)
				assertMatchesOracle(t, o.tr, o.ref, fmt.Sprintf("scan %d", i))
			}
			deepest := 0
			for _, k := range o.tr.codes {
				if k != inBrick {
					deepest = max(deepest, int(k))
				}
			}
			if c.chain && deepest <= 5 {
				t.Fatalf("no voxel went past step %d of the long chain", deepest)
			}
		})
	}
}

// TestMissChainForkAndRoundTrip pins the copies of a map with voxels in both
// homes: a fork, and a fork of its v2 round trip, must match the oracle,
// keep matching it under further scans, and write the source's bytes.
func TestMissChainForkAndRoundTrip(t *testing.T) {
	o := newOracleTwin(geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16)), DefaultParams())
	rng := rand.New(rand.NewSource(20))
	for s := 0; s < 4; s++ {
		at := randomInteriorPoint(rng)
		o.insert(at, throughHitScan(rng, at, 100), 1+s%2)
	}
	if chained, bricked := homeCounts(o.tr); chained == 0 || bricked == 0 {
		t.Fatalf("%d chain and %d brick voxels, want both homes used", chained, bricked)
	}
	snap := o.tr.Snapshot()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := decoded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("the decoded snapshot writes other bytes")
	}
	for name, tr := range map[string]*Tree{"fork": snap.Fork(), "decoded fork": decoded.Fork()} {
		ref := &refMap{p: o.ref.p, mask: o.ref.mask, vox: map[[3]int]float64{}, updates: o.ref.updates}
		for k, v := range o.ref.vox {
			ref.vox[k] = v
		}
		assertMatchesOracle(t, tr, ref, name)
		twin := oracleTwin{tr, ref}
		for s := 0; s < 3; s++ {
			at := randomInteriorPoint(rng)
			twin.insert(at, throughHitScan(rng, at, 100), 1+s)
			assertMatchesOracle(t, tr, ref, fmt.Sprintf("%s after scan %d", name, s))
		}
	}
}

// TestMissOnlyScanAllocatesNoBrick pins the point of the chain: a scan of
// max-range rays that stays inside the bounds leaves every voxel it touches
// on the chain, with no brick allocated, and digests like a brick-only tree
// fed the same scan.
func TestMissOnlyScanAllocatesNoBrick(t *testing.T) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16))
	tr := New(bounds, 0.5, DefaultParams())
	control := bricksOnly(New(bounds, 0.5, DefaultParams()))
	rng := rand.New(rand.NewSource(21))
	origin := geom.V(16, 16, 8)
	var pts []RayPoint
	for len(pts) < 300 {
		if p := randomScan(rng, origin, 1)[0]; bounds.Contains(p.End) {
			pts = append(pts, RayPoint{End: p.End})
		}
	}
	tr.InsertCloudN(origin, pts, 2)
	control.InsertCloudN(origin, pts, 2)
	if tr.NumLeaves() != 0 {
		t.Fatalf("a miss-only scan allocated %d brick slots", tr.NumLeaves())
	}
	if chained, _ := homeCounts(tr); chained == 0 {
		t.Fatal("the scan left no voxel on the chain")
	}
	if tr.Digest() != control.Digest() {
		t.Fatal("chain tree and brick-only tree digest differently")
	}
}
