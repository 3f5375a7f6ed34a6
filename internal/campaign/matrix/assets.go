package matrix

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"mavfi/internal/campaign"
	"mavfi/internal/detect"
	"mavfi/internal/env"
	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
	"mavfi/internal/platform"
)

// Assets is the warm cache of everything campaign execution builds before
// the first mission flies: environments, golden-map seeds, kernel-
// calibration counters, shared training corpora, and trained detector
// factories. A long-running campaign server, a dispatcher and each worker
// shard own one Assets across their whole lifetime so consecutive jobs skip
// the (world build, seed build, calibration flight, detector training)
// setup; a one-shot CLI run uses a fresh one and behaves exactly as before.
// Everything it holds lives in memory only and is rebuilt by each process
// on first use.
//
// Sharing is safe because every cached asset is immutable or cloned at the
// point of use: a *env.World is read-only once its obstacle index is built
// (the campaign concurrency invariant of docs/ARCHITECTURE.md), counters are
// only read after calibration, and detector factories return a fresh Clone
// per mission. And it cannot change results: each asset is a deterministic
// pure function of its cache key, so a warm hit returns bit-identical state
// to a cold build — the served-equals-CLI invariant rests on this.
//
// All methods are safe for concurrent use. Builds happen under the Assets
// lock, so two concurrent jobs needing the same cold asset serialize on it
// (the second waits and gets the cache hit). A build that flies missions
// (calibration, detector training) may wait for a slot of a shared
// campaign.Slots pool while it holds the lock; missions never take the
// lock, so that order cannot deadlock.
type Assets struct {
	mu        sync.Mutex
	worlds    map[string]*env.World
	counters  map[counterKey]*faultinject.Counter
	training  map[trainKey][][detect.NumStates]float64
	detectors map[detectorKey]func() detect.Detector
	seeds     map[string]*pipeline.MapSeed
}

// counterKey identifies one kernel-calibration run: the calibration mission
// flies world `world` with seed `seed`+555 under the given mission budget.
type counterKey struct {
	world       string
	seed        int64
	maxMissionS float64
}

// trainKey identifies one training corpus: trainEnvs collection environments
// rooted at seed+1000 (the offset every CLI uses).
type trainKey struct {
	seed      int64
	trainEnvs int
}

// detectorKey identifies one trained detector model.
type detectorKey struct {
	name string
	trainKey
}

// NewAssets returns an empty warm cache.
func NewAssets() *Assets {
	return &Assets{
		worlds:    make(map[string]*env.World),
		counters:  make(map[counterKey]*faultinject.Counter),
		training:  make(map[trainKey][][detect.NumStates]float64),
		detectors: make(map[detectorKey]func() detect.Detector),
		seeds:     make(map[string]*pipeline.MapSeed),
	}
}

// MapSeed returns the golden map for the named world, building it with
// pipeline.BuildMapSeed on first use. A cache hit is bit-identical to a
// fresh build: BuildMapSeed is a deterministic pure function of the world,
// so every process that builds a world's seed builds the same one.
func (a *Assets) MapSeed(world string) (*pipeline.MapSeed, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.seeds[world]; ok {
		return s, nil
	}
	w, err := a.worldLocked(world)
	if err != nil {
		return nil, err
	}
	s := pipeline.BuildMapSeed(w)
	a.seeds[world] = s
	return s, nil
}

// World returns the named standard environment, building it on first use.
// The returned world is shared: its obstacle index is built once and is
// strictly read-only afterwards, so any number of concurrent missions (and
// jobs) may raycast against it.
func (a *Assets) World(name string) (*env.World, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w, ok := a.worlds[name]; ok {
		return w, nil
	}
	w, err := World(name)
	if err != nil {
		return nil, err
	}
	a.worlds[name] = w
	return w, nil
}

// Counter returns the kernel dynamic-value calibration counter for the
// (world, matrix seed, mission budget) triple, flying the one calibration
// mission on first use. The calibration flight is deterministic, so a cache
// hit is bit-identical to a fresh calibration.
func (a *Assets) Counter(world string, seed int64, maxMissionS float64) (*faultinject.Counter, error) {
	return a.counter(context.Background(), nil, world, seed, maxMissionS)
}

// counter is Counter with the calibration flight under one slot of pool
// (nil = no pool), taken while a.mu is held (the lock order Assets
// documents); it gives up with ctx.Err() if ctx ends while it waits. A
// cached counter takes no slot.
func (a *Assets) counter(ctx context.Context, pool *campaign.Slots, world string, seed int64, maxMissionS float64) (*faultinject.Counter, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := counterKey{world, seed, maxMissionS}
	if ctr, ok := a.counters[key]; ok {
		return ctr, nil
	}
	w, err := a.worldLocked(world)
	if err != nil {
		return nil, err
	}
	if err := pool.Acquire(ctx); err != nil {
		return nil, err
	}
	ctr := faultinject.NewCounter()
	pipeline.RunMission(pipeline.Config{World: w, Seed: seed + 555, MaxMissionS: maxMissionS, Counter: ctr})
	pool.Release()
	a.counters[key] = ctr
	return ctr, nil
}

// SingleCellPlans draws the fault plans of the single-cell injection
// campaign mavfi flies over world (and records under -record-dir's
// injection/): plan i belongs to the mission seeded seed+i. At most one of
// kernel, state and fault is set, as mavfi's flags of the same names spell
// them; with none set there are no plans, the golden campaign. The plan RNG is seeded at seed+42. kernel and state draw the
// paper's compute faults directly: faultinject.NewPlan over the world's
// calibration count (Counter at seed) and NewStatePlan over 15–85% of the
// nominal duration. fault draws from the zoo with faultinject.DrawFault at
// severity and calibrates only for the kernel family. These are not the
// matrix's draws, which seed each cell's plan RNG from the cell identity.
func (a *Assets) SingleCellPlans(world, kernel, state, fault string, severity float64, runs int, seed int64) ([]faultinject.FaultPlan, error) {
	if runs < 0 {
		return nil, fmt.Errorf("matrix: negative mission count %d", runs)
	}
	target := fault
	switch {
	case kernel != "":
		target = "kernel:" + kernel
	case state != "":
		target = "state:" + state
	case fault == "":
		return nil, nil
	}
	fam, spec, err := faultinject.ParseTarget(target)
	if err != nil {
		return nil, err
	}
	w, err := a.World(world)
	if err != nil {
		return nil, err
	}
	var ctr *faultinject.Counter
	if fam == faultinject.FamilyKernel {
		if ctr, err = a.Counter(world, seed, 0); err != nil {
			return nil, err
		}
	}
	nominal := pipeline.NominalDuration(pipeline.Config{World: w})
	spec.NominalS, spec.Severity = nominal, severity
	rng := rand.New(rand.NewSource(seed + 42))
	plans := make([]faultinject.FaultPlan, runs)
	for i := range plans {
		switch {
		case kernel != "":
			pl := faultinject.NewPlan(spec.Kernel, ctr.Count(spec.Kernel), rng)
			plans[i].Kernel = &pl
		case state != "":
			pl := faultinject.NewStatePlan(spec.State, nominal*0.15, nominal*0.85, rng)
			plans[i].State = &pl
		default:
			plans[i] = faultinject.DrawFault(fam, spec, ctr, rng)
		}
	}
	return plans, nil
}

// worldLocked is World for callers already holding a.mu.
func (a *Assets) worldLocked(name string) (*env.World, error) {
	if w, ok := a.worlds[name]; ok {
		return w, nil
	}
	w, err := World(name)
	if err != nil {
		return nil, err
	}
	a.worlds[name] = w
	return w, nil
}

// Detector returns the clone-per-mission factory for the named detector
// ("none" returns a nil factory), training the underlying model on first use
// with the same seed offsets every CLI uses (corpus at seed+1000 on
// trainEnvs environments, AAD initialization at seed+2000). The training
// corpus is cached independently, so "gad" and "aad" for one (seed,
// trainEnvs) pair share a single collection pass exactly as the one-shot
// matrix runner's trainDetectors did.
func (a *Assets) Detector(ctx context.Context, r *campaign.Runner, name string, seed int64, trainEnvs int) (func() detect.Detector, error) {
	if err := checkDetector(name); err != nil || name == "none" {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	key := detectorKey{name, trainKey{seed, trainEnvs}}
	if mk, ok := a.detectors[key]; ok {
		return mk, nil
	}
	data, ok := a.training[key.trainKey]
	if !ok {
		var err error
		data, err = pipeline.CollectTrainingDataOn(ctx, r, trainEnvs, seed+1000, platform.I9())
		if err != nil {
			return nil, fmt.Errorf("matrix: collecting training data: %w", err)
		}
		a.training[key.trainKey] = data
	}
	var mk func() detect.Detector
	if name == "gad" {
		gad := pipeline.TrainGAD(data, 4)
		mk = func() detect.Detector { return gad.Clone() }
	} else {
		aad := pipeline.TrainAAD(data, detect.DefaultAADConfig(), seed+2000)
		mk = func() detect.Detector { return aad.Clone() }
	}
	a.detectors[key] = mk
	return mk, nil
}

// checkDetector refuses a name that is not on the detector axis.
func checkDetector(name string) error {
	switch name {
	case "none", "gad", "aad":
		return nil
	}
	return fmt.Errorf("matrix: unknown detector %q (have none, gad, aad)", name)
}

// detectorFactories resolves the spec's whole detector axis through the
// cache, preserving the legacy trainDetectors contract: nil factory for
// "none", an error for unknown names.
func (a *Assets) detectorFactories(ctx context.Context, r *campaign.Runner, spec Spec) (map[string]func() detect.Detector, error) {
	factories := make(map[string]func() detect.Detector, len(spec.Detectors))
	for _, name := range spec.Detectors {
		if _, ok := factories[name]; ok {
			continue
		}
		mk, err := a.Detector(ctx, r, name, spec.Seed, spec.TrainEnvs)
		if err != nil {
			return nil, err
		}
		factories[name] = mk
	}
	return factories, nil
}
