package sim

import (
	"math/rand"
	"testing"

	"mavfi/internal/env"
	"mavfi/internal/geom"
)

// BenchmarkCaptureInto measures the steady-state depth-frame render: table-
// driven ray setup plus world raycasts into reused buffers.
func BenchmarkCaptureInto(b *testing.B) {
	w := wallWorld()
	cam := DefaultDepthCamera()
	rng := rand.New(rand.NewSource(2))
	img := &DepthImage{}
	pos := geom.V(10, 50, 5)
	cam.CaptureInto(img, w, pos, 0, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cam.CaptureInto(img, w, pos, 0.1, rng)
	}
}

// BenchmarkCapturePresets measures depth capture where the mission captures:
// each iteration renders one frame in each of the four preset worlds (drawn
// as the campaign matrix draws them), from poses along the world's start→goal
// line at cruise altitude, facing the goal. Unlike BenchmarkCaptureInto's
// single wall, these frames see several obstacles at different distances,
// which is where the per-ray cull skips work.
func BenchmarkCapturePresets(b *testing.B) {
	worlds := []*env.World{
		env.Factory(),
		env.Farm(),
		env.Sparse(rand.New(rand.NewSource(1))),
		env.Dense(rand.New(rand.NewSource(1))),
	}
	type pose struct {
		pos geom.Vec3
		yaw float64
	}
	var poses [][]pose
	for _, w := range worlds {
		var ps []pose
		for i := range 8 {
			p := w.Start.Lerp(w.Goal, (float64(i)+0.5)/8)
			p.Z = 2.5
			ps = append(ps, pose{p, w.Goal.Sub(p).Yaw()})
		}
		poses = append(poses, ps)
	}
	cam := DefaultDepthCamera()
	rng := rand.New(rand.NewSource(2))
	img := &DepthImage{}
	cam.CaptureInto(img, worlds[0], poses[0][0].pos, poses[0][0].yaw, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for wi, w := range worlds {
			p := poses[wi][i%8]
			cam.CaptureInto(img, w, p.pos, p.yaw, rng)
		}
	}
}
