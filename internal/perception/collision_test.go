package perception

import (
	"math"
	"testing"

	"mavfi/internal/geom"
	"mavfi/internal/octomap"
)

// mark applies one hit (or miss) at p's voxel: a ray from p to p walks no
// voxel but its endpoint.
func mark(tr *octomap.Tree, p geom.Vec3, hit bool) {
	tr.InsertCloud(p, []octomap.RayPoint{{End: p, Hit: hit}})
}

// wallMap builds an octomap with a wall at x=16 and free space before it.
func wallMap() *octomap.Tree {
	tr := octomap.New(geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16)), 0.5, octomap.DefaultParams())
	for y := 0.0; y < 32; y += 0.5 {
		for z := 0.0; z < 16; z += 0.5 {
			mark(tr, geom.V(16.25, y+0.25, z+0.25), true)
			mark(tr, geom.V(16.75, y+0.25, z+0.25), true)
		}
	}
	for x := 2.0; x < 16; x += 0.5 {
		for y := 6.0; y < 10; y += 0.5 {
			mark(tr, geom.V(x+0.25, y+0.25, 4.25), false)
		}
	}
	return tr
}

func TestTimeToCollision(t *testing.T) {
	tr := wallMap()
	ck := NewChecker(0.4)
	pos := geom.V(4, 8, 4)
	vel := geom.V(2, 0, 0) // 2 m/s toward the wall ~12 m away
	rep := ck.Check(tr, pos, vel, nil, nil)
	want := 12.0 / 2.0
	if math.Abs(rep.TimeToCollision-want) > 1.0 {
		t.Errorf("ttc = %v, want ≈%v", rep.TimeToCollision, want)
	}
	if rep.FutureCollisionSeq != -1 {
		t.Errorf("seq = %v with no trajectory", rep.FutureCollisionSeq)
	}
}

func TestTimeToCollisionClearPath(t *testing.T) {
	tr := wallMap()
	ck := NewChecker(0.4)
	// Flying away from the wall.
	rep := ck.Check(tr, geom.V(4, 8, 4), geom.V(-1, 0, 0), nil, nil)
	if rep.TimeToCollision > ck.Horizon {
		t.Errorf("ttc %v exceeds horizon", rep.TimeToCollision)
	}
	// Hovering: no meaningful TTC, reports horizon.
	rep = ck.Check(tr, geom.V(4, 8, 4), geom.Vec3{}, nil, nil)
	if rep.TimeToCollision != ck.Horizon {
		t.Errorf("hover ttc = %v, want horizon %v", rep.TimeToCollision, ck.Horizon)
	}
}

func TestFutureCollisionSeq(t *testing.T) {
	tr := wallMap()
	ck := NewChecker(0.4)
	traj := []geom.Vec3{
		{X: 5, Y: 8, Z: 4},
		{X: 10, Y: 8, Z: 4},
		{X: 16.25, Y: 8, Z: 4}, // inside the wall
		{X: 20, Y: 8, Z: 4},
	}
	rep := ck.Check(tr, geom.V(4, 8, 4), geom.Vec3{}, traj, nil)
	if rep.FutureCollisionSeq != 2 {
		t.Errorf("seq = %v, want 2", rep.FutureCollisionSeq)
	}
	// Clear trajectory.
	rep = ck.Check(tr, geom.V(4, 8, 4), geom.Vec3{}, traj[:2], nil)
	if rep.FutureCollisionSeq != -1 {
		t.Errorf("clear seq = %v", rep.FutureCollisionSeq)
	}
}

func TestCheckCorruptHook(t *testing.T) {
	tr := wallMap()
	ck := NewChecker(0.4)
	pos, vel := geom.V(4, 8, 4), geom.V(2, 0, 0)

	// Corruption producing a negative distance clamps TTC at 0.
	rep := ck.Check(tr, pos, vel, nil, func(x float64) float64 { return -x })
	if rep.TimeToCollision != 0 {
		t.Errorf("negative-corrupted ttc = %v", rep.TimeToCollision)
	}
	// NaN corruption clamps to 0 rather than propagating.
	rep = ck.Check(tr, pos, vel, nil, func(x float64) float64 { return math.NaN() })
	if math.IsNaN(rep.TimeToCollision) {
		t.Error("NaN ttc propagated")
	}
	// Huge corruption clamps to horizon.
	rep = ck.Check(tr, pos, vel, nil, func(x float64) float64 { return x * 1e12 })
	if rep.TimeToCollision > ck.Horizon {
		t.Errorf("over-horizon ttc = %v", rep.TimeToCollision)
	}
}

func TestCheckUnknownSpaceOptimism(t *testing.T) {
	tr := octomap.New(geom.Box(geom.V(0, 0, 0), geom.V(32, 32, 16)), 0.5, octomap.DefaultParams())
	ck := NewChecker(0.4)
	// Entirely unknown map: optimistic policy sees no collisions.
	rep := ck.Check(tr, geom.V(4, 8, 4), geom.V(2, 0, 0), []geom.Vec3{{X: 10, Y: 8, Z: 4}}, nil)
	if rep.TimeToCollision != ck.Horizon || rep.FutureCollisionSeq != -1 {
		t.Errorf("unknown space pessimistic: %+v", rep)
	}
}
