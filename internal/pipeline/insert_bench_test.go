package pipeline

import (
	"math/rand"
	"slices"
	"testing"

	"mavfi/internal/env"
	"mavfi/internal/geom"
	"mavfi/internal/octomap"
)

// BenchmarkInsertColdMap times scan insertion into maps that start empty,
// the way every exact-mode mission builds its map. Outside the timer it
// captures the seed sweep's 48 scans of each preset world (generated as the
// campaign matrix generates it); each iteration resets one tree to each
// world in turn and inserts each of the world's scans once. It reports ns
// per leaf update. octomap's BenchmarkInsertCloud, by contrast, re-inserts
// one scan into a warm tree, where every carve step lands on a clamped
// voxel. make bench-insert runs it once.
func BenchmarkInsertColdMap(b *testing.B) {
	type scan struct {
		origin geom.Vec3
		pts    []octomap.RayPoint
	}
	worlds := []*env.World{
		env.Sparse(rand.New(rand.NewSource(1))),
		env.Dense(rand.New(rand.NewSource(1))),
		env.Factory(),
		env.Farm(),
	}
	sweeps := make([][]scan, len(worlds))
	for i, w := range worlds {
		seedSweep(w, func(origin geom.Vec3, pts []octomap.RayPoint) {
			sweeps[i] = append(sweeps[i], scan{origin, slices.Clone(pts)})
		})
	}
	tree := new(octomap.Tree)
	updates := 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, w := range worlds {
			tree.Reset(w.Bounds, mapResolution, octomap.DefaultParams())
			for _, s := range sweeps[i] {
				tree.InsertCloud(s.origin, s.pts)
			}
			updates += tree.LeafUpdates()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(updates), "ns/leafupdate")
}
