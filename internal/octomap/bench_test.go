package octomap

import (
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// benchScan builds a depth-scan-shaped workload on a mission-sized volume.
func benchScan() (*Tree, geom.Vec3, []RayPoint) {
	bounds := geom.Box(geom.V(0, 0, 0), geom.V(60, 60, 20))
	tr := New(bounds, 0.5, DefaultParams())
	rng := rand.New(rand.NewSource(5))
	origin := geom.V(30, 30, 3)
	return tr, origin, randomScan(rng, origin, 384) // depth-camera ray count
}

// BenchmarkInsertCloud measures the batched scan-integration path the
// mission loop uses.
func BenchmarkInsertCloud(b *testing.B) {
	tr, origin, pts := benchScan()
	tr.InsertCloud(origin, pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.InsertCloud(origin, pts)
	}
	b.ReportMetric(float64(tr.LeafUpdates())/float64(b.N+1), "leafupdates/scan")
}

// benchQueryTree builds a scan-saturated map plus a set of planner-like
// query segments over it.
func benchQueryTree() (*Tree, [][2]geom.Vec3) {
	tr, origin, pts := benchScan()
	tr.InsertCloud(origin, pts)
	rng := rand.New(rand.NewSource(17))
	segs := make([][2]geom.Vec3, 256)
	for i := range segs {
		a := geom.V(rng.Float64()*56+2, rng.Float64()*56+2, rng.Float64()*16+2)
		segs[i] = [2]geom.Vec3{a, a.Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()*0.3).Normalize().Scale(3))}
	}
	return tr, segs
}

// BenchmarkSegmentFree measures the DDA segment query on RRT*-edge-length
// segments, classifying from the codes (the planner configuration).
func BenchmarkSegmentFree(b *testing.B) {
	tr, segs := benchQueryTree()
	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := segs[i%len(segs)]
		tr.SegmentFree(s[0], s[1], q)
	}
}

// BenchmarkSegmentFreeCruise measures SegmentFree on the edges a flying
// planner tests most: 3 m segments inside the cruise band (1.2–5 m) over a
// map whose floor is mapped, so every 8³ block of the bottom layer holds
// Occupied voxels and only the z-layers above the floor can prove an edge
// free without walking it. It reports the share of its queries the
// prescan answers.
func BenchmarkSegmentFreeCruise(b *testing.B) {
	tr, origin, pts := benchScan()
	tr.InsertCloud(origin, pts)
	tr.InsertCloud(groundScan(geom.Box(geom.V(0, 0, 0), geom.V(60, 60, 20))))
	rng := rand.New(rand.NewSource(19))
	segs := make([][2]geom.Vec3, 256)
	for i := range segs {
		a := geom.V(rng.Float64()*56+2, rng.Float64()*56+2, 1.2+rng.Float64()*3.8)
		e := a.Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()*0.1).Normalize().Scale(3))
		e.Z = geom.Clampf(e.Z, 1.2, 5)
		segs[i] = [2]geom.Vec3{a, e}
	}
	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := segs[i%len(segs)]
		tr.SegmentFree(s[0], s[1], q)
	}
	b.StopTimer()
	answered := 0
	for _, s := range segs {
		if tr.bundleAllFree(s[0], s[1], q) {
			answered++
		}
	}
	b.ReportMetric(float64(answered)/float64(len(segs)), "prescan-frac")
}

// BenchmarkFirstBlocked measures the perception-side time-to-collision query.
func BenchmarkFirstBlocked(b *testing.B) {
	tr, segs := benchQueryTree()
	q := QueryPolicy{UnknownIsFree: true, Radius: 0.55}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := segs[i%len(segs)]
		tr.FirstBlocked(s[0], s[1], q)
	}
}

// BenchmarkInsertRayReference measures the test-only map oracle (refMap,
// one map write per crossed voxel, the shape of the insertion kernel before
// the fused carve and the brick store) on the identical scan: the
// before-side of BenchmarkInsertCloud.
func BenchmarkInsertRayReference(b *testing.B) {
	tr, origin, pts := benchScan()
	ref := newRefMap(tr)
	for _, p := range pts {
		ref.insertRay(tr, origin, p.End, p.Hit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			ref.insertRay(tr, origin, p.End, p.Hit)
		}
	}
}
