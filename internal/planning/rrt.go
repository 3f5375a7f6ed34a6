package planning

import (
	"math/rand"

	"mavfi/internal/geom"
)

// RRT is the baseline rapidly-exploring random tree planner (LaValle 1998):
// grow a single tree from the start by steering toward uniform samples, and
// finish when a node can connect to the goal.
//
// An RRT instance owns its search-tree arena and spatial index (reused
// across Plan invocations) and must not serve concurrent Plan calls; the
// mission pipeline constructs one planner per mission.
type RRT struct {
	// Cfg is the sampling configuration.
	Cfg Config

	tree searchTree // per-planner scratch, reset by every Plan
}

// NewRRT returns an RRT planner with the given configuration.
func NewRRT(cfg Config) *RRT { return &RRT{Cfg: cfg} }

// Name implements Planner.
func (p *RRT) Name() string { return "RRT" }

// Plan implements Planner.
func (p *RRT) Plan(start, goal geom.Vec3, cc CollisionChecker, rng *rand.Rand) ([]geom.Vec3, error) {
	if !cc.PointFree(start) || !cc.PointFree(goal) {
		return nil, ErrNoPath
	}
	if cc.SegmentFree(start, goal) {
		return []geom.Vec3{start, goal}, nil
	}
	t := &p.tree
	t.reset(&p.Cfg, treeNode{pos: start, parent: -1})
	for iter := 0; iter < p.Cfg.MaxIters; iter++ {
		target := p.Cfg.sample(goal, rng)
		ni := t.nearest(target)
		cand := p.Cfg.steer(t.nodes[ni].pos, target)
		if !cc.SegmentFree(t.nodes[ni].pos, cand) {
			continue
		}
		li := t.add(treeNode{pos: cand, parent: ni})
		if cand.Dist(goal) <= p.Cfg.GoalTol && cc.SegmentFree(cand, goal) {
			path := extractPath(t.nodes, li)
			if path[len(path)-1] != goal {
				path = append(path, goal)
			}
			return path, nil
		}
	}
	return nil, ErrNoPath
}
