package pipeline_test

import (
	"math/rand"
	"sync"
	"testing"

	"mavfi/internal/env"
	"mavfi/internal/pipeline"
)

// TestEmptySeedReproducesGoldenDigests is the exact-mode gate for the fork
// machinery itself: every golden mission, re-run with MapSeed set to an
// *empty* golden map (a fork of octomap.New, repeatedly recycled through the
// mission tree free list), must reproduce its pinned digest bit-for-bit. This proves
// Snapshot/Fork/ForkInto and the free list add nothing and lose nothing — the
// only thing a real seed changes is the map content it starts from.
func TestEmptySeedReproducesGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every golden mission twice-equivalent work")
	}
	seeds := map[string]*pipeline.MapSeed{} // one per world, shared across cases
	for name, cfg := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			s, ok := seeds[cfg.World.Name]
			if !ok {
				s = pipeline.EmptyMapSeed(cfg.World)
				seeds[cfg.World.Name] = s
			}
			cfg.MapSeed = s
			// Run twice so the second mission forks into the first's recycled
			// arena — the recycled-tree path is the one campaigns live on.
			digestMission(pipeline.RunMission(cfg))
			got := digestMission(pipeline.RunMission(cfg))
			if want := goldenDigests[name]; got != want {
				t.Errorf("empty-seed mission diverged from golden: got 0x%016x, want 0x%016x", got, want)
			}
		})
	}
}

// TestZeroStrideBitIdentical pins that NearFieldStride 0 and 1 are both
// exactly the off switch: digests match the unstrided mission bit-for-bit.
func TestZeroStrideBitIdentical(t *testing.T) {
	cfg := pipeline.Config{World: env.Sparse(rand.New(rand.NewSource(42))), Seed: 1}
	base := digestMission(pipeline.RunMission(cfg))
	for _, stride := range []int{0, 1} {
		c := cfg
		c.NearFieldStride = stride
		if got := digestMission(pipeline.RunMission(c)); got != base {
			t.Errorf("stride %d changed the mission: got 0x%016x, want 0x%016x", stride, got, base)
		}
	}
}

// TestSeededMissionDeterministic pins approximate-mode reproducibility: the
// same built seed (and the same stride) always yields the same mission,
// whether the tree comes from a fresh fork, a recycled arena, or a
// different MapSeed value built from the same world.
func TestSeededMissionDeterministic(t *testing.T) {
	w := env.Sparse(rand.New(rand.NewSource(42)))
	seedA, seedB := pipeline.BuildMapSeed(w), pipeline.BuildMapSeed(w)
	if seedA.Digest() != seedB.Digest() {
		t.Fatal("BuildMapSeed is not deterministic for a fixed world")
	}
	cfg := pipeline.Config{World: w, Seed: 3, MapSeed: seedA, NearFieldStride: 2}
	first := digestMission(pipeline.RunMission(cfg))
	second := digestMission(pipeline.RunMission(cfg)) // recycled arena
	cfg.MapSeed = seedB
	third := digestMission(pipeline.RunMission(cfg)) // independent seed value
	if first != second || first != third {
		t.Errorf("seeded mission not deterministic: %016x / %016x / %016x", first, second, third)
	}
}

// TestSeededMissionsParallelDeterministic pins worker-width independence at
// the pipeline level: many missions sharing one MapSeed concurrently (so
// recycled arenas are handed out in racy orders) must each match their serial
// digest. This is the property the campaign CSV byte-identity gate rests on.
func TestSeededMissionsParallelDeterministic(t *testing.T) {
	w := env.Sparse(rand.New(rand.NewSource(42)))
	seed := pipeline.BuildMapSeed(w)
	missionSeeds := []int64{1, 2, 3, 9}
	serial := make([]uint64, len(missionSeeds))
	for i, ms := range missionSeeds {
		serial[i] = digestMission(pipeline.RunMission(pipeline.Config{World: w, Seed: ms, MapSeed: seed}))
	}
	parallel := make([]uint64, len(missionSeeds))
	var wg sync.WaitGroup
	for i, ms := range missionSeeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[i] = digestMission(pipeline.RunMission(pipeline.Config{World: w, Seed: ms, MapSeed: seed}))
		}()
	}
	wg.Wait()
	for i := range missionSeeds {
		if parallel[i] != serial[i] {
			t.Errorf("seed %d: parallel digest %016x != serial %016x", missionSeeds[i], parallel[i], serial[i])
		}
	}
}

// TestMapSeedRejectsWrongWorld pins the geometry guard of a mission: a seed
// built for another world panics instead of flying.
func TestMapSeedRejectsWrongWorld(t *testing.T) {
	sparse := env.Sparse(rand.New(rand.NewSource(42)))
	defer func() {
		if recover() == nil {
			t.Error("RunMission accepted a MapSeed built for a different world")
		}
	}()
	pipeline.RunMission(pipeline.Config{World: env.Factory(), Seed: 1, MapSeed: pipeline.BuildMapSeed(sparse)})
}
