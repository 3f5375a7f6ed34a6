package pipeline

import (
	"math/rand"
	"testing"

	"mavfi/internal/env"
	"mavfi/internal/geom"
	"mavfi/internal/octomap"
)

// referenceMapSeedDigest returns the digest of BuildMapSeed's golden map
// built the direct way: the same sweep, with each scan inserted seedConfirm
// times by plain InsertCloud calls.
func referenceMapSeedDigest(w *env.World) uint64 {
	tree := octomap.New(w.Bounds, mapResolution, octomap.DefaultParams())
	seedSweep(w, func(origin geom.Vec3, scan []octomap.RayPoint) {
		for rep := 0; rep < seedConfirm; rep++ {
			tree.InsertCloud(origin, scan)
		}
	})
	return tree.Digest()
}

// TestBuildMapSeedMatchesRepeatedInsertCloud pins that folding each sweep
// scan's seedConfirm passes into one walk builds the same golden map as
// inserting the scan seedConfirm times, on all four preset worlds, each
// generated as the campaign matrix generates it.
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
