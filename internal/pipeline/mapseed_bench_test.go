package pipeline_test

import (
	"math/rand"
	"testing"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/env"
	"mavfi/internal/octomap"
	"mavfi/internal/pipeline"
)

// presetWorlds returns the four preset worlds, each generated as the
// campaign matrix generates it.
func presetWorlds(b *testing.B) []*env.World {
	var worlds []*env.World
	for _, name := range []string{"sparse", "dense", "factory", "farm"} {
		w, err := matrix.World(name)
		if err != nil {
			b.Fatal(err)
		}
		worlds = append(worlds, w)
	}
	return worlds
}

// BenchmarkBuildMapSeed times the golden-map build a campaign pays once per
// world before it forks any mission (setup_s in the sweep-memo benchmark):
// one op builds the seeds of the four preset worlds, each generated as the
// campaign matrix generates it. make bench-insert runs it once.
func BenchmarkBuildMapSeed(b *testing.B) {
	worlds := presetWorlds(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range worlds {
			pipeline.BuildMapSeed(w)
		}
	}
}

// BenchmarkForkSeed times the copy every seeded mission starts from: one op
// forks a preset world's golden seed into a recycled tree, as a mission
// drawing its tree from the free list does, with one sub-benchmark per
// world. b.SetBytes is the bytes each fork copies (Snapshot.Bytes), also
// reported as B/fork, so the output reads as fork cost and copy bandwidth.
// make bench-insert runs it once.
func BenchmarkForkSeed(b *testing.B) {
	for _, w := range presetWorlds(b) {
		snap := pipeline.BuildMapSeed(w).Snapshot()
		b.Run(w.Name, func(b *testing.B) {
			tree := new(octomap.Tree)
			snap.ForkInto(tree) // recycled: grown to the seed before the timer
			b.SetBytes(int64(snap.Bytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				snap.ForkInto(tree)
			}
			b.ReportMetric(float64(snap.Bytes()), "B/fork")
		})
	}
}

// BenchmarkCampaignCell is the PR 9 headline: one campaign cell's worth of
// missions (six seeds on the sparse world) flown cold (every mission builds
// its octree from scratch) versus memo (every mission forks the world's
// golden map and skips rays whose evidence is saturated), with and without
// near-field ray subsampling. The golden map is built outside the timer —
// campaigns amortize it across a whole cell, so the fair comparison is
// mission cost alone. make bench-seed runs the three rows.
func BenchmarkCampaignCell(b *testing.B) {
	w := env.Sparse(rand.New(rand.NewSource(42)))
	missionSeeds := []int64{1, 2, 3, 9, 11, 17}
	cell := func(b *testing.B, seed *pipeline.MapSeed, stride int, memo bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range missionSeeds {
				pipeline.RunMission(pipeline.Config{World: w, Seed: s, MapSeed: seed, NearFieldStride: stride, MemoSkip: memo})
			}
		}
	}
	b.Run("cold", func(b *testing.B) { cell(b, nil, 0, false) })
	b.Run("memo", func(b *testing.B) {
		seed := pipeline.BuildMapSeed(w)
		b.ResetTimer()
		cell(b, seed, 0, true)
	})
	b.Run("memo-near2", func(b *testing.B) {
		seed := pipeline.BuildMapSeed(w)
		b.ResetTimer()
		cell(b, seed, 2, true)
	})
}
