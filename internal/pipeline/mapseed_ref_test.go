package pipeline

import (
	"math/rand"
	"testing"

	"mavfi/internal/env"
	"mavfi/internal/octomap"
	"mavfi/internal/pointcloud"
	"mavfi/internal/sim"
)

// referenceMapSeedDigest returns the digest of BuildMapSeed's golden map
// built the direct way: the same sweep, with each scan inserted seedConfirm
// times by plain InsertCloud calls.
func referenceMapSeedDigest(w *env.World) uint64 {
	tree := octomap.New(w.Bounds, mapResolution, octomap.DefaultParams())
	cam := sim.DefaultDepthCamera()
	gen := pointcloud.NewGenerator()
	rng := rand.New(rand.NewSource(7))
	frame := &sim.DepthImage{}
	cloud := &pointcloud.Cloud{}
	var scan []octomap.RayPoint
	for i := 0; i < 12; i++ {
		pos := w.Start.Lerp(w.Goal, float64(i)/11)
		pos.Z = 2.5
		for _, yaw := range []float64{0, 1.6, 3.1, 4.7} {
			cam.CaptureInto(frame, w, pos, yaw, rng)
			gen.GenerateInto(cloud, frame, nil)
			scan = scan[:0]
			for _, p := range cloud.Points {
				scan = append(scan, octomap.RayPoint{End: p.P, Hit: p.Hit})
			}
			for rep := 0; rep < seedConfirm; rep++ {
				tree.InsertCloud(cloud.Origin, scan)
			}
		}
	}
	return tree.Digest()
}

// TestBuildMapSeedMatchesRepeatedInsertCloud pins that replaying each sweep
// scan's recorded walk builds the same golden map as inserting the scan
// seedConfirm times, on all four preset worlds, each generated as the
// campaign matrix generates it.
func TestBuildMapSeedMatchesRepeatedInsertCloud(t *testing.T) {
	worlds := []*env.World{
		env.Sparse(rand.New(rand.NewSource(1))),
		env.Dense(rand.New(rand.NewSource(1))),
		env.Factory(),
		env.Farm(),
	}
	for _, w := range worlds {
		if got, want := BuildMapSeed(w).Digest(), referenceMapSeedDigest(w); got != want {
			t.Errorf("%s: BuildMapSeed digest %016x, reference %016x", w.Name, got, want)
		}
	}
}
