package pipeline

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"mavfi/internal/env"
	"mavfi/internal/octomap"
	"mavfi/internal/testutil"
)

// idleLen returns how many trees the mission free list holds.
func idleLen() int {
	idleTrees.mu.Lock()
	defer idleTrees.mu.Unlock()
	return len(idleTrees.idle)
}

// drainIdleTrees empties the mission free list, so a test starts from a
// known state whatever ran before it.
func drainIdleTrees() {
	idleTrees.mu.Lock()
	defer idleTrees.mu.Unlock()
	clear(idleTrees.idle)
	idleTrees.idle = idleTrees.idle[:0]
}

// TestTreeListCapAndOrder pins the free list's contract: get on an empty
// list hands out a fresh zero tree, put keeps at most GOMAXPROCS trees and
// drops the rest, and get returns the most recently put tree first.
func TestTreeListCapAndOrder(t *testing.T) {
	var l treeList
	if l.get() == nil {
		t.Fatal("get on an empty list returned nil")
	}
	limit := runtime.GOMAXPROCS(0)
	trees := make([]*octomap.Tree, limit+3)
	for i := range trees {
		trees[i] = new(octomap.Tree)
		l.put(trees[i])
	}
	if len(l.idle) != limit {
		t.Fatalf("list holds %d trees after %d puts, want the cap %d", len(l.idle), len(trees), limit)
	}
	if got := l.get(); got != trees[limit-1] {
		t.Fatal("get did not return the most recently kept tree")
	}
}

// missionFingerprint renders every field of a mission result, floats in
// their shortest round-tripping form, so two results compare bit for bit.
func missionFingerprint(res Result) string { return fmt.Sprintf("%+v", res) }

// TestFreeListConcurrentMissions is the free list's race gate: more
// concurrent missions than the list's cap, across two worlds, mixing exact
// missions (Reset) with seeded ones (ForkInto), so trees cross worlds and
// modes in racy orders. Every result must equal the sequential run's, and
// the list must never hold more idle trees than its cap. CI runs it with
// -race -count=10.
func TestFreeListConcurrentMissions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const limit = 2
	drainIdleTrees()
	sparse := env.Sparse(rand.New(rand.NewSource(42)))
	factory := env.Factory()
	seeds := map[*env.World]*MapSeed{sparse: BuildMapSeed(sparse), factory: BuildMapSeed(factory)}
	var cfgs []Config
	for i := 0; i < 3*limit; i++ {
		w := sparse
		if i%2 == 1 {
			w = factory
		}
		cfg := Config{World: w, Seed: int64(i + 1), MaxMissionS: 12}
		if i%4 >= 2 {
			cfg.MapSeed = seeds[w]
			cfg.MemoSkip = i%3 == 0
		}
		cfgs = append(cfgs, cfg)
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = missionFingerprint(RunMission(cfg))
	}

	stop, watched := make(chan struct{}), make(chan int)
	go func() {
		peak := 0
		for {
			peak = max(peak, idleLen())
			select {
			case <-stop:
				watched <- peak
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	got := make([]string, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = missionFingerprint(RunMission(cfg))
		}()
	}
	wg.Wait()
	close(stop)
	if peak := max(<-watched, idleLen()); peak > limit {
		t.Errorf("free list held %d idle trees, cap %d", peak, limit)
	}
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("mission %d (%s, seeded %v): concurrent result differs from sequential\n got %s\nwant %s",
				i, cfgs[i].World.Name, cfgs[i].MapSeed != nil, got[i], want[i])
		}
	}
}

// TestSteadyStateMissionAllocBudget is the allocation guard on the tree
// lifecycle: once a warm-up mission has grown a tree and returned it to the
// free list, the next exact mission of the same world must allocate under
// 1 MB in total. Building each mission's tree from scratch allocates
// megabytes of brick slab, index, codes and summary, so reintroducing
// per-mission arenas fails here.
func TestSteadyStateMissionAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation totals are meaningless under -race instrumentation")
	}
	cfg := Config{World: env.Sparse(rand.New(rand.NewSource(42))), Seed: 1}
	RunMission(cfg) // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunMission(cfg)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("steady-state exact mission allocated %.2f MB, budget 1 MB", float64(got)/(1<<20))
	}
}
