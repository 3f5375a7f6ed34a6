package pipeline

import (
	"fmt"
	"math/rand"

	"mavfi/internal/env"
	"mavfi/internal/octomap"
	"mavfi/internal/pointcloud"
	"mavfi/internal/sim"
)

// mapResolution is the octree voxel resolution every mission flies at; the
// seed machinery validates snapshots against it so a fork can never silently
// change the map geometry a mission sees.
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
// start becomes a memcpy of the bricks and grids, forked into a tree from the
// mission free list (see idleTrees), instead of a from-scratch mapping pass.
//
// A MapSeed is safe for concurrent use by any number of missions. Identity
// holds at any worker width because ForkInto fully resets the recycled
// tree's semantic state — which tree a mission happens to draw from the
// list is unobservable (pinned by the octomap fork equivalence suite).
type MapSeed struct {
	snap *octomap.Snapshot
}

// NewMapSeed wraps snap as the golden seed for world w, rejecting snapshots
// whose geometry does not match the octree a mission of w would build.
func NewMapSeed(w *env.World, snap *octomap.Snapshot) (*MapSeed, error) {
	if !snap.Matches(w.Bounds, mapResolution) {
		return nil, fmt.Errorf("pipeline: map seed geometry does not match world %q", w.Name)
	}
	return &MapSeed{snap: snap}, nil
}

// EmptyMapSeed returns a seed holding an empty map of w: forking it is
// semantically identical to octomap.New, which makes it the exact-mode
// reference point the golden-digest transparency tests pin.
func EmptyMapSeed(w *env.World) *MapSeed {
	s, err := NewMapSeed(w, octomap.New(w.Bounds, mapResolution, octomap.DefaultParams()).Snapshot())
	if err != nil {
		panic(err) // unreachable: the snapshot is built from w itself
	}
	return s
}

// Snapshot returns the seed's immutable snapshot (for persistence).
func (s *MapSeed) Snapshot() *octomap.Snapshot { return s.snap }

// Digest returns the seed map's content digest.
func (s *MapSeed) Digest() uint64 { return s.snap.Digest() }

// BuildMapSeed precomputes a golden map for w: one deterministic mapping
// pass — depth captures through the real perception kernels from a sweep of
// poses along the start→goal line at cruise altitude, four yaws per pose —
// snapshotted as the seed every mission of the world forks. The sweep is
// the same shape the planner bench uses and costs a few milliseconds, far
// cheaper than flying a mission; its RNG is fixed (sensor noise only), so
// the same world always yields the same seed digest.
func BuildMapSeed(w *env.World) *MapSeed {
	tree := octomap.New(w.Bounds, mapResolution, octomap.DefaultParams())
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
			tree.InsertCloudN(cloud.Origin, scan, seedConfirm)
		}
	}
	s, err := NewMapSeed(w, tree.Snapshot())
	if err != nil {
		panic(err) // unreachable: the tree is built from w itself
	}
	return s
}
