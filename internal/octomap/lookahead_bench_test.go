package octomap_test

import (
	"math/rand"
	"testing"

	"mavfi/internal/env"
	"mavfi/internal/geom"
	"mavfi/internal/octomap"
	"mavfi/internal/perception"
	"mavfi/internal/pipeline"
	"mavfi/internal/pointcloud"
	"mavfi/internal/sim"
)

// lookaheadQuery is one collision-check look-ahead probe and the map it
// was cast against.
type lookaheadQuery struct {
	tree *octomap.Tree
	a, b geom.Vec3
}

// lookaheadQueries replays a recorded nominal mission in each of two preset
// worlds: the map is rebuilt from the depth frames the camera captures at
// every other recorded pose, and every pose moving faster than the
// collision check's 0.05 m/s threshold casts its 10 s look-ahead along its
// velocity (20–60 m at cruise, climbing after take-off, often leaving the
// volume), against the map as it stood at most ten poses earlier.
func lookaheadQueries(b *testing.B) []lookaheadQuery {
	b.Helper()
	cam := sim.DefaultDepthCamera()
	gen := pointcloud.NewGenerator()
	frame, cloud := &sim.DepthImage{}, &pointcloud.Cloud{}
	rng := rand.New(rand.NewSource(7))
	var queries []lookaheadQuery
	for _, w := range []*env.World{env.Sparse(rand.New(rand.NewSource(1))), env.Factory()} {
		res := pipeline.RunMission(pipeline.Config{World: w, Seed: 1, Record: true})
		tree := octomap.New(w.Bounds, 0.5, octomap.DefaultParams())
		var scan []octomap.RayPoint
		var snap *octomap.Tree
		for i, s := range res.Trace.Samples {
			if i%2 == 0 {
				cam.CaptureInto(frame, w, s.Pos, s.Yaw, rng)
				gen.GenerateInto(cloud, frame, nil)
				scan = scan[:0]
				for _, p := range cloud.Points {
					scan = append(scan, octomap.RayPoint{End: p.P, Hit: p.Hit})
				}
				tree.InsertCloud(cloud.Origin, scan)
			}
			if i%10 == 0 {
				snap = tree.Snapshot().Fork()
			}
			if speed := s.Vel.Len(); speed > 0.05 {
				queries = append(queries, lookaheadQuery{snap, s.Pos, s.Pos.Add(s.Vel.Normalize().Scale(10 * speed))})
			}
		}
	}
	return queries
}

// BenchmarkFirstBlockedLookahead measures FirstBlocked on the collision
// check's own query, the 10 s look-ahead of lookaheadQueries, under the
// check's policy. BenchmarkFirstBlocked times 3 m planner-length segments
// instead, where a look-ahead crosses many 8³ blocks and often the volume
// boundary.
func BenchmarkFirstBlockedLookahead(b *testing.B) {
	queries := lookaheadQueries(b)
	q := perception.NewChecker(sim.DefaultParams().Radius).Policy
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lq := &queries[i%len(queries)]
		lq.tree.FirstBlocked(lq.a, lq.b, q)
	}
}
