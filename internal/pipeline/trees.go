package pipeline

import (
	"runtime"
	"sync"

	"mavfi/internal/octomap"
)

// idleTrees is the one free list every mission draws its octree from and
// returns it to in finish. A mission's map grows to several hundred 8³
// bricks plus a code byte per voxel of the bounds (MBs), so building each
// mission's tree from scratch spent most of a campaign's allocation on
// regrowing them; a recycled tree keeps its grown brick slab, brick index,
// codes and summary, and Reset (exact missions) or ForkInto (seeded
// missions) reinitialises it to exactly the state octomap.New or
// Snapshot.Fork would build, so which tree a mission draws is unobservable.
//
// The list holds at most GOMAXPROCS idle trees — one per processor that can
// be flying a mission — and drops any tree returned beyond that, so an idle
// process retains at most that many trees (1.2–3.2 MB of bricks, index,
// codes and summary each on the paper's worlds after exact and memo
// missions, the slab the largest part). A sync.Pool was measured
// and rejected here: its per-P and victim copies each retain their largest
// tree, which raised the benchmark's peak RSS on the served and sweep-memo
// workloads by 13–15% over this list, which holds it below building every
// tree fresh.
var idleTrees treeList

// treeList is a capped LIFO of idle octrees, safe for concurrent use.
type treeList struct {
	mu   sync.Mutex
	idle []*octomap.Tree
}

// get pops the most recently returned idle tree, or returns a zero tree
// when the list is empty (Reset and ForkInto both accept one).
func (l *treeList) get() *octomap.Tree {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return new(octomap.Tree)
	}
	t := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return t
}

// put returns t to the list unless it already holds its cap of
// runtime.GOMAXPROCS(0) trees, in which case t is left to the collector.
func (l *treeList) put(t *octomap.Tree) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < runtime.GOMAXPROCS(0) {
		l.idle = append(l.idle, t)
	}
}

// missionTree draws a tree from the free list and initialises it for a
// mission of cfg: a fork of cfg.MapSeed's golden map when one is set,
// otherwise an empty map of the world.
func missionTree(cfg Config) *octomap.Tree {
	t := idleTrees.get()
	if cfg.MapSeed != nil {
		cfg.MapSeed.snap.ForkInto(t)
	} else {
		t.Reset(cfg.World.Bounds, mapResolution, octomap.DefaultParams())
	}
	return t
}
