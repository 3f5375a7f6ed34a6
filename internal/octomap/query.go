package octomap

import (
	"math"

	"mavfi/internal/geom"
)

// QueryPolicy controls how Unknown voxels are treated by navigation-level
// queries. The MAVBench planners are optimistic: unexplored space is assumed
// traversable until observed, otherwise no plan could ever leave the sensor
// frustum.
type QueryPolicy struct {
	// UnknownIsFree treats Unknown voxels as traversable when true.
	UnknownIsFree bool
	// Radius is the vehicle collision radius used to inflate queries.
	Radius float64
}

// blocked reports whether the single voxel classification counts as a
// collision under the policy.
func (q QueryPolicy) blocked(o Occupancy) bool {
	switch o {
	case Occupied:
		return true
	case Unknown:
		return !q.UnknownIsFree
	default:
		return false
	}
}

// probeOffsets returns the 6 face-adjacent probe offsets at radius r. The
// collision radius is applied by probing the centre plus these offsets — an
// O(7) approximation of the swept sphere. Mapped structures thinner than the
// voxel pitch can slip between probes; real obstacles integrate as
// multi-voxel surfaces, for which the probe set is reliable.
func probeOffsets(r float64) [6]geom.Vec3 {
	return [6]geom.Vec3{
		{X: r}, {X: -r}, {Y: r}, {Y: -r}, {Z: r}, {Z: -r},
	}
}

// PointFree reports whether a vehicle centred at p fits in the map under the
// policy (centre voxel plus the 6 probe voxels at the radius; see
// probeOffsets).
func (t *Tree) PointFree(p geom.Vec3, q QueryPolicy) bool {
	if q.blocked(t.At(p)) {
		return false
	}
	if q.Radius <= 0 {
		return true
	}
	for _, d := range probeOffsets(q.Radius) {
		if q.blocked(t.At(p.Add(d))) {
			return false
		}
	}
	return true
}

// SegmentFree reports whether the segment a→b is traversable under the
// policy: for the centre ray and each of the 6 probe-offset rays, every leaf
// voxel the ray crosses must be unblocked and the ray must stay inside the
// mapped volume (out-of-volume space is Occupied, as in At).
//
// Each offset ray is enumerated with the same 3-D DDA voxel walk the
// insertion path uses, visiting each crossed voxel exactly once. This is the
// continuous-collision refinement of the pre-PR3 implementation, which
// sampled PointFree at half-resolution spacing (~2 probes per crossed voxel)
// and could step over a voxel the segment only grazes.
//
// Since PR 5 the seven walks run fused: the shared direction is initialised
// once and each offset ray re-derives only its single perturbed axis (see
// fusedwalk.go), and the occupancy-summary prescan answers the whole query
// without walking when every (block, z-layer) slab in reach holds no
// obstacle. When the walks do run, rays go centre first, then offsets in
// probeOffsets order with the same early exit, so results and the
// classification-probe sequence are bit-identical to the per-ray reference
// (segmentFreeSeq in the equivalence suite).
func (t *Tree) SegmentFree(a, b geom.Vec3, q QueryPolicy) bool {
	if q.Radius > 0 && t.bundleAllFree(a, b, q) {
		return true // no walk can classify anything outside zero slabs
	}
	var m multiWalker
	m.init(t, a, b)
	if !t.walkFree(&m.x, &m.y, &m.z, q) {
		return false
	}
	if q.Radius <= 0 {
		return true
	}
	offs := probeOffsets(q.Radius)
	for i := range offs {
		// probeOffsets perturbs exactly one axis per offset (axis i>>1):
		// recompute that axis, share the other two with the centre ray.
		var free bool
		switch i >> 1 {
		case 0:
			t.fillRayAxis(&m.o, a.X+offs[i].X, b.X+offs[i].X, t.origin.X)
			free = t.walkFree(&m.o, &m.y, &m.z, q)
		case 1:
			t.fillRayAxis(&m.o, a.Y+offs[i].Y, b.Y+offs[i].Y, t.origin.Y)
			free = t.walkFree(&m.x, &m.o, &m.z, q)
		default:
			t.fillRayAxis(&m.o, a.Z+offs[i].Z, b.Z+offs[i].Z, t.origin.Z)
			free = t.walkFree(&m.x, &m.y, &m.o, q)
		}
		if !free {
			return false
		}
	}
	return true
}

// FirstBlocked walks from a toward b and returns the parametric position
// frac ∈ [0,1] at which the vehicle first collides — the exact boundary
// crossing into the earliest blocked voxel across the centre ray and the 6
// probe-offset rays — or ok=false when the whole segment is traversable.
// The perception stage uses this for time-to-collision.
//
// Like SegmentFree, each ray is a DDA voxel walk rather than the pre-PR3
// half-resolution sampling; frac is the true voxel-boundary crossing instead
// of the first blocked sample position (which lagged the boundary by up to
// half a sample spacing). The seven walks run fused since PR 5 (see
// SegmentFree and fusedwalk.go), every one of them, whether it stays in the
// volume or leaves it, in the one loop of firstBlockedWalk. FirstBlocked has
// no prescan: a look-ahead ray reaches far past the blocks a bundle prescan
// could clear, and the walk itself steps over every block whose layers it
// crosses hold no Occupied voxel (blockExit), which answers every query the
// prescan did.
func (t *Tree) FirstBlocked(a, b geom.Vec3, q QueryPolicy) (frac float64, ok bool) {
	var m multiWalker
	m.init(t, a, b)
	first := math.Inf(1)
	if f, blocked := t.walkFirstBlocked(a, b, &m.x, &m.y, &m.z, q); blocked {
		first = f
	}
	if q.Radius > 0 {
		offs := probeOffsets(q.Radius)
		for i := range offs {
			ao, bo := a.Add(offs[i]), b.Add(offs[i])
			var f float64
			var blocked bool
			switch i >> 1 {
			case 0:
				t.fillRayAxis(&m.o, ao.X, bo.X, t.origin.X)
				f, blocked = t.walkFirstBlocked(ao, bo, &m.o, &m.y, &m.z, q)
			case 1:
				t.fillRayAxis(&m.o, ao.Y, bo.Y, t.origin.Y)
				f, blocked = t.walkFirstBlocked(ao, bo, &m.x, &m.o, &m.z, q)
			default:
				t.fillRayAxis(&m.o, ao.Z, bo.Z, t.origin.Z)
				f, blocked = t.walkFirstBlocked(ao, bo, &m.x, &m.y, &m.o, q)
			}
			if blocked && f < first {
				first = f
			}
		}
	}
	if math.IsInf(first, 1) {
		return 0, false
	}
	return first, true
}
