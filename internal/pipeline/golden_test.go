package pipeline_test

import (
	"encoding/binary"
	"flag"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/env"
	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
)

// printGolden regenerates the expected digest table instead of asserting, for
// use when a change is *intended* to alter mission dynamics:
//
//	go test ./internal/pipeline -run TestGoldenMissionDigest -golden.print
var printGolden = flag.Bool("golden.print", false, "print golden mission digests instead of asserting")

// goldenDigests pins the bit-exact closed-loop behaviour of the pipeline.
// Performance work is not allowed to move a single float unless it changes
// collision *semantics* deliberately — and then the change must be justified
// in writing and re-pinned here in the same commit.
//
// History: the values were recorded on the pre-PR2 per-ray/linear-scan
// implementation and survived the whole PR2 perf overhaul (batched octree
// insertion, world raycast acceleration, reusable frame buffers) bit-for-bit.
// PR3 replaced the half-resolution *sampled* SegmentFree/FirstBlocked probes
// with exact DDA voxel walks — a deliberate semantic refinement (the DDA
// visits voxels the sampler could step over, and reports the true boundary
// crossing rather than the first blocked sample; see
// docs/ARCHITECTURE.md#why-the-pr3-golden-digests-changed). Three digests
// moved (factory/seed1, factory/seed2, dense/seed1 — the obstacle-dense
// scenes where grazing voxels and time-to-collision fractions actually
// differ); the other five, including both fault-injection cases, were
// reproduced bit-for-bit, which is also the evidence that PR3's insertion
// collapse and per-voxel classification cache are pure (bit-identical)
// optimisations.
var goldenDigests = map[string]uint64{
	"factory/seed1":      0x02f815ecc9e79645,
	"factory/seed2":      0x6ac091f49e2c6697,
	"farm/seed1":         0xcbd2b17e0f664511,
	"sparse/seed1":       0x638ff8094c591611,
	"sparse/seed9":       0x3f738736f93af69f,
	"dense/seed1":        0x59f0405c653c488f,
	"sparse/kernelfault": 0xdd31d90a1ff9da17,
	"sparse/statefault":  0xe07395feff066db9,
}

// digestMission hashes every externally observable float and counter of a
// mission result. Any bit-level divergence anywhere in the closed loop
// (perception, mapping, planning, control, detection accounting) changes the
// flight dynamics and therefore this digest.
func digestMission(res pipeline.Result) uint64 {
	h := fnv.New64a()
	put := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	puti := func(i int) { put(float64(i)) }
	puti(int(res.Outcome))
	put(res.FlightTimeS)
	put(res.EnergyJ)
	put(res.DistanceM)
	put(res.ComputeS)
	put(res.DetectS)
	put(res.RecoverPerceptionS)
	put(res.RecoverPlanningS)
	put(res.RecoverControlS)
	puti(res.Alarms)
	puti(res.Recomputes)
	puti(res.Plans)
	puti(res.PlanFails)
	if res.Injected {
		put(res.InjectedAt)
	}
	return h.Sum64()
}

// goldenCases enumerates the pinned missions: every environment archetype,
// plus a kernel-fault and a state-fault mission so the injection paths are
// covered too.
func goldenCases() map[string]pipeline.Config {
	sparse := env.Sparse(rand.New(rand.NewSource(42)))
	dense := env.Dense(rand.New(rand.NewSource(43)))
	kf := &faultinject.Plan{Kernel: faultinject.KernelPlanner, Index: 200, Bit: 62}
	sf := &faultinject.StatePlan{State: faultinject.StateWpX, Time: 12, Bit: 61}
	return map[string]pipeline.Config{
		"factory/seed1":      {World: env.Factory(), Seed: 1},
		"factory/seed2":      {World: env.Factory(), Seed: 2},
		"farm/seed1":         {World: env.Farm(), Seed: 1},
		"sparse/seed1":       {World: sparse, Seed: 1},
		"sparse/seed9":       {World: sparse, Seed: 9},
		"dense/seed1":        {World: dense, Seed: 1},
		"sparse/kernelfault": {World: sparse, Seed: 5, KernelFault: kf},
		"sparse/statefault":  {World: sparse, Seed: 5, StateFault: sf},
	}
}

// TestGoldenMissionDigest is the bit-identity gate: fixed-seed missions must
// produce results identical to the pinned implementation (see goldenDigests
// for what is pinned and when re-pinning is legitimate).
func TestGoldenMissionDigest(t *testing.T) {
	for name, cfg := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			got := digestMission(pipeline.RunMission(cfg))
			if *printGolden {
				t.Logf("%q: 0x%016x,", name, got)
				return
			}
			want, ok := goldenDigests[name]
			if !ok {
				t.Fatalf("no golden digest recorded for %q", name)
			}
			if got != want {
				t.Errorf("mission digest diverged from pre-PR2 behaviour: got 0x%016x, want 0x%016x", got, want)
			}
		})
	}
}

// TestGoldenDigestsThroughSharedFreeList flies all 8 golden cases twice
// through the mission tree free list, in an order that changes world on
// every mission, with each case flown once exact (Reset) and once on its
// world's empty seed (ForkInto). Every mission therefore starts on a tree
// recycled from another world, another mode or both, and must still
// reproduce its pinned digest; nothing is re-pinned.
func TestGoldenDigestsThroughSharedFreeList(t *testing.T) {
	order := []string{
		"factory/seed1", "sparse/seed1", "farm/seed1", "sparse/seed9",
		"dense/seed1", "sparse/kernelfault", "factory/seed2", "sparse/statefault",
	}
	cases := goldenCases()
	if len(order) != len(cases) {
		t.Fatalf("order lists %d cases, goldenCases has %d", len(order), len(cases))
	}
	seeds := map[string]*pipeline.MapSeed{}
	for pass := 0; pass < 2; pass++ {
		for i, name := range order {
			cfg := cases[name]
			mode := "exact"
			if (i+pass)%2 == 1 {
				mode = "empty seed"
				if seeds[cfg.World.Name] == nil {
					seeds[cfg.World.Name] = pipeline.EmptyMapSeed(cfg.World)
				}
				cfg.MapSeed = seeds[cfg.World.Name]
			}
			if got, want := digestMission(pipeline.RunMission(cfg)), goldenDigests[name]; got != want {
				t.Errorf("pass %d, %s (%s): digest 0x%016x, want 0x%016x", pass, name, mode, got, want)
			}
		}
	}
}
