package planning

import (
	"math/rand"

	"mavfi/internal/geom"
)

// RRTConnect is the bidirectional RRT-Connect planner (Kuffner & LaValle
// 2000): two trees grow from the start and the goal, each alternately
// extending toward a sample and then greedily connecting toward the other
// tree's newest node.
//
// An RRTConnect instance owns the two search-tree arenas and their spatial
// indices (reused across Plan invocations) and must not serve concurrent
// Plan calls; the mission pipeline constructs one planner per mission.
type RRTConnect struct {
	// Cfg is the sampling configuration.
	Cfg Config

	ta searchTree // start-rooted tree, per-planner scratch
	tb searchTree // goal-rooted tree, per-planner scratch
}

// NewRRTConnect returns an RRT-Connect planner with the given configuration.
func NewRRTConnect(cfg Config) *RRTConnect { return &RRTConnect{Cfg: cfg} }

// Name implements Planner.
func (p *RRTConnect) Name() string { return "RRTConnect" }

type connectResult int

const (
	trapped connectResult = iota
	advanced
	reached
)

// extend grows tree by one step toward target.
func (p *RRTConnect) extend(tree *searchTree, target geom.Vec3, cc CollisionChecker) (connectResult, int) {
	ni := tree.nearest(target)
	cand := p.Cfg.steer(tree.nodes[ni].pos, target)
	if !cc.SegmentFree(tree.nodes[ni].pos, cand) {
		return trapped, -1
	}
	li := tree.add(treeNode{pos: cand, parent: ni})
	if cand.Dist(target) < 1e-9 {
		return reached, li
	}
	return advanced, li
}

// connect repeatedly extends tree toward target until blocked or reached.
func (p *RRTConnect) connect(tree *searchTree, target geom.Vec3, cc CollisionChecker) (connectResult, int) {
	for {
		res, li := p.extend(tree, target, cc)
		if res != advanced {
			return res, li
		}
		// Cap runaway connects against the iteration budget implicitly via
		// tree growth; a tree larger than MaxIters nodes aborts.
		if tree.len() > p.Cfg.MaxIters {
			return trapped, -1
		}
	}
}

// Plan implements Planner.
func (p *RRTConnect) Plan(start, goal geom.Vec3, cc CollisionChecker, rng *rand.Rand) ([]geom.Vec3, error) {
	if !cc.PointFree(start) || !cc.PointFree(goal) {
		return nil, ErrNoPath
	}
	p.ta.reset(&p.Cfg, treeNode{pos: start, parent: -1}) // rooted at start
	p.tb.reset(&p.Cfg, treeNode{pos: goal, parent: -1})  // rooted at goal
	fromStart := true

	for iter := 0; iter < p.Cfg.MaxIters; iter++ {
		a, b := &p.ta, &p.tb
		if !fromStart {
			a, b = &p.tb, &p.ta
		}
		target := p.Cfg.sample(goal, rng)
		res, li := p.extend(a, target, cc)
		if res != trapped {
			newPos := a.nodes[li].pos
			cres, cli := p.connect(b, newPos, cc)
			if cres == reached {
				// Join: path through tree a to newPos, then back down tree b.
				var pa, pb []geom.Vec3
				if fromStart {
					pa = extractPath(p.ta.nodes, li)
					pb = extractPath(p.tb.nodes, cli)
				} else {
					pa = extractPath(p.ta.nodes, cli)
					pb = extractPath(p.tb.nodes, li)
				}
				// pa runs start→join, pb runs goal→join; reverse pb.
				path := append([]geom.Vec3{}, pa...)
				for i := len(pb) - 2; i >= 0; i-- { // -2 skips duplicate join point
					path = append(path, pb[i])
				}
				return path, nil
			}
		}
		fromStart = !fromStart
	}
	return nil, ErrNoPath
}
