package pipeline

import (
	"math/rand"

	"mavfi/internal/env"
	"mavfi/internal/geom"
	"mavfi/internal/octomap"
	"mavfi/internal/pointcloud"
	"mavfi/internal/sim"
)

// mapResolution is the octree voxel resolution every mission flies at; a
// mission checks its seed against it so a fork can never silently change
// the map geometry a mission sees.
const mapResolution = 0.5

// seedConfirm is how many times BuildMapSeed integrates each sweep scan
// (one walk that applies all five passes per voxel: see
// octomap.Tree.InsertCloudN).
// Five consistent observations drive a voxel from unknown to either clamp
// (5 misses = 5·logit(0.4) ≤ ClampMin, 5 hits = 5·logit(0.7) ≥ ClampMax),
// so the golden map is a full-confidence prior: everything the sweep saw is
// clamped, which is exactly what lets the MemoSkip lever elide re-carving
// it. Without the confirmation passes most seed voxels sit between the
// clamps and every mission re-pays their integration cost.
const seedConfirm = 5

// nearFieldFrac bounds the "near field" for NearFieldStride subsampling:
// rays whose endpoints land within this fraction of the camera's range of
// the scan origin revisit the same few voxels scan after scan, which is
// what makes dropping them cheap in fidelity terms.
const nearFieldFrac = 0.3

// MapSeed is an immutable golden-map snapshot for one world. Campaigns build
// one seed per world and share it across every mission of a cell: mission
// start becomes a memcpy of the bricks, codes and summary, forked into a
// tree from the mission free list (see idleTrees), instead of a from-scratch
// mapping pass.
//
// A MapSeed is safe for concurrent use by any number of missions. Identity
// holds at any worker width because ForkInto fully resets the recycled
// tree's semantic state — which tree a mission happens to draw from the
// list is unobservable (pinned by the octomap fork equivalence suite).
type MapSeed struct {
	snap *octomap.Snapshot
}

// EmptyMapSeed returns a seed holding an empty map of w: forking it is
// semantically identical to octomap.New, which makes it the exact-mode
// reference point the golden-digest transparency tests pin.
func EmptyMapSeed(w *env.World) *MapSeed {
	return &MapSeed{snap: octomap.New(w.Bounds, mapResolution, octomap.DefaultParams()).Snapshot()}
}

// Snapshot returns the seed's immutable snapshot, for callers that fork it
// outside a mission.
func (s *MapSeed) Snapshot() *octomap.Snapshot { return s.snap }

// Digest returns the seed map's content digest.
func (s *MapSeed) Digest() uint64 { return s.snap.Digest() }

// BuildMapSeed precomputes a golden map for w: one deterministic mapping
// pass — depth captures through the real perception kernels from a sweep of
// poses along the start→goal line at cruise altitude, four yaws per pose —
// snapshotted as the seed every mission of the world forks. The sweep is
// the same shape the planner bench uses and costs 20–35 ms on the preset
// worlds, far cheaper than flying a mission; its RNG is fixed (sensor noise
// only), so the same world always yields the same seed digest, and every
// process that flies a world builds the seed it forks.
func BuildMapSeed(w *env.World) *MapSeed {
	tree := octomap.New(w.Bounds, mapResolution, octomap.DefaultParams())
	seedSweep(w, func(origin geom.Vec3, scan []octomap.RayPoint) {
		tree.InsertCloudN(origin, scan, seedConfirm)
	})
	return &MapSeed{snap: tree.Snapshot()}
}

// seedSweep captures BuildMapSeed's sweep of w and calls fn with each
// scan's origin and points, in sweep order; fn must not keep scan, whose
// array the next scan reuses.
func seedSweep(w *env.World, fn func(origin geom.Vec3, scan []octomap.RayPoint)) {
	cam := sim.DefaultDepthCamera()
	gen := pointcloud.NewGenerator()
	rng := rand.New(rand.NewSource(7))
	frame := &sim.DepthImage{}
	cloud := &pointcloud.Cloud{}
	var scan []octomap.RayPoint
	for i := 0; i < 12; i++ {
		f := float64(i) / 11
		pos := w.Start.Lerp(w.Goal, f)
		pos.Z = 2.5
		for _, yaw := range []float64{0, 1.6, 3.1, 4.7} {
			cam.CaptureInto(frame, w, pos, yaw, rng)
			gen.GenerateInto(cloud, frame, nil)
			scan = scan[:0]
			for _, p := range cloud.Points {
				scan = append(scan, octomap.RayPoint{End: p.P, Hit: p.Hit})
			}
			fn(cloud.Origin, scan)
		}
	}
}
