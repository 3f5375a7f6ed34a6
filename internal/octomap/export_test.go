package octomap

import (
	"math"

	"mavfi/internal/geom"
)

// The single-voxel and single-ray surface the package tests drive the tree
// through. Nothing outside the tests calls it, and each method reads or
// writes voxel values through the same paths the scan insertion uses, and
// bumps Generation as an insertion does.

// InsertRay integrates one range measurement: exactly InsertCloud(origin,
// []RayPoint{{End: end, Hit: hit}}).
func (t *Tree) InsertRay(origin, end geom.Vec3, hit bool) {
	t.gen++
	t.integrateRay(origin, end, hit, 1)
}

// MarkOccupied applies one hit at p's voxel.
func (t *Tree) MarkOccupied(p geom.Vec3) {
	t.gen++
	if x, y, z, ok := t.key(p); ok {
		t.updateKey(x, y, z, true, 1)
	}
}

// MarkFree applies one miss at p's voxel.
func (t *Tree) MarkFree(p geom.Vec3) {
	t.gen++
	if x, y, z, ok := t.key(p); ok {
		t.updateKey(x, y, z, false, 1)
	}
}

// Prob returns the occupancy probability of the voxel containing p, and
// whether the voxel is known; outside the volume it is (1, true).
func (t *Tree) Prob(p geom.Vec3) (float64, bool) {
	x, y, z, ok := t.key(p)
	if !ok {
		return 1, true
	}
	lo, known := t.lookup(x, y, z)
	return 1 / (1 + math.Exp(-lo)), known
}

// VoxelCenter returns the centre of the leaf voxel containing p; ok is false
// outside the volume.
func (t *Tree) VoxelCenter(p geom.Vec3) (geom.Vec3, bool) {
	x, y, z, ok := t.key(p)
	if !ok {
		return geom.Vec3{}, false
	}
	r := t.resolution
	return t.origin.Add(geom.V((float64(x)+0.5)*r, (float64(y)+0.5)*r, (float64(z)+0.5)*r)), true
}

// NumLeaves returns the number of voxel slots the allocated bricks hold
// (512 per brick).
func (t *Tree) NumLeaves() int { return len(t.store.slab) }
