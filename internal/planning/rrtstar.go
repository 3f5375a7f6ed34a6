package planning

import (
	"math/rand"

	"mavfi/internal/geom"
)

// RRTStar is the asymptotically optimal RRT* planner (Karaman & Frazzoli
// 2011): new nodes choose the lowest-cost parent in a neighbourhood and
// rewire neighbours through themselves when that shortens their cost-to-
// come. This is the default motion planner of the paper's PPC pipeline.
//
// An RRTStar instance owns its search-tree arena, spatial index, and
// neighbourhood scratch (reused across Plan invocations) and must not serve
// concurrent Plan calls; the mission pipeline constructs one planner per
// mission.
type RRTStar struct {
	// Cfg is the sampling configuration.
	Cfg Config

	tree searchTree // per-planner scratch, reset by every Plan
	hood []int32    // neighbourhood scratch for choose-parent/rewire
}

// NewRRTStar returns an RRT* planner with the given configuration.
func NewRRTStar(cfg Config) *RRTStar { return &RRTStar{Cfg: cfg} }

// Name implements Planner.
func (p *RRTStar) Name() string { return "RRT*" }

// Plan implements Planner.
func (p *RRTStar) Plan(start, goal geom.Vec3, cc CollisionChecker, rng *rand.Rand) ([]geom.Vec3, error) {
	if !cc.PointFree(start) || !cc.PointFree(goal) {
		return nil, ErrNoPath
	}
	t := &p.tree
	t.reset(&p.Cfg, treeNode{pos: start, parent: -1, cost: 0})
	bestGoal := -1
	bestCost := 0.0

	for iter := 0; iter < p.Cfg.MaxIters; iter++ {
		target := p.Cfg.sample(goal, rng)
		ni := t.nearest(target)
		cand := p.Cfg.steer(t.nodes[ni].pos, target)
		if !cc.SegmentFree(t.nodes[ni].pos, cand) {
			continue
		}

		// Choose the cheapest collision-free parent in the neighbourhood.
		// The neighbourhood is gathered before the candidate is added, in
		// ascending node-index order, so tie-breaking matches the reference
		// linear scan exactly.
		parent := ni
		cost := t.nodes[ni].cost + t.nodes[ni].pos.Dist(cand)
		p.hood = t.near(cand, p.Cfg.RewireRadius, p.hood[:0])
		for _, i := range p.hood {
			n := &t.nodes[i]
			if c := n.cost + n.pos.Dist(cand); c < cost && cc.SegmentFree(n.pos, cand) {
				parent, cost = int(i), c
			}
		}
		li := t.add(treeNode{pos: cand, parent: parent, cost: cost})

		// Rewire neighbours through the new node when cheaper.
		for _, i := range p.hood {
			n := &t.nodes[i]
			if through := cost + cand.Dist(n.pos); through < n.cost && cc.SegmentFree(cand, n.pos) {
				n.parent = li
				n.cost = through
			}
		}

		if cand.Dist(goal) <= p.Cfg.GoalTol && cc.SegmentFree(cand, goal) {
			total := cost + cand.Dist(goal)
			if bestGoal < 0 || total < bestCost {
				bestGoal, bestCost = li, total
			}
			// Keep sampling a little longer to let rewiring improve the
			// path, but cap the extra effort at 25% of the budget.
			if iter > p.Cfg.MaxIters/4 {
				break
			}
		}
	}
	if bestGoal < 0 {
		return nil, ErrNoPath
	}
	path := extractPath(t.nodes, bestGoal)
	if path[len(path)-1] != goal {
		path = append(path, goal)
	}
	return path, nil
}
