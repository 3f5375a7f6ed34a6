package matrix

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mavfi/internal/campaign"
	"mavfi/internal/detect"
	"mavfi/internal/env"
	"mavfi/internal/faultinject"
	"mavfi/internal/octomap"
	"mavfi/internal/pipeline"
	"mavfi/internal/platform"
)

// Assets is the warm cache of everything campaign execution builds before
// the first mission flies: environments, kernel-calibration counters, shared
// training corpora, and trained detector factories. A long-running campaign
// server owns one Assets across its whole lifetime so consecutive jobs skip
// the (world build, calibration flight, detector training) setup; a one-shot
// CLI run uses a fresh one and behaves exactly as before.
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
	seedDir   string
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

// SetSeedDir enables golden-map persistence under dir: MapSeed loads cached
// snapshot files from it before building, and writes freshly built seeds
// back (best-effort — a write failure just means the next restart rebuilds).
// The campaign server points this at <record-dir>/mapseeds so restart
// recovery skips seed construction along with everything else.
func (a *Assets) SetSeedDir(dir string) {
	a.mu.Lock()
	a.seedDir = dir
	a.mu.Unlock()
}

// MapSeed returns the golden map for the named world, building it with
// pipeline.BuildMapSeed on first use (or loading it from the seed directory
// when one is set and holds a valid snapshot for the world's geometry). A
// cache or disk hit is bit-identical to a fresh build: BuildMapSeed is a
// deterministic pure function of the world, and loaded snapshots are
// digest-checked by the reader and geometry-checked against the world here.
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
	path := ""
	if a.seedDir != "" {
		path = filepath.Join(a.seedDir, world+".mapseed")
		if snap, err := octomap.ReadSnapshotFile(path); err == nil {
			if s, err := pipeline.NewMapSeed(w, snap); err == nil {
				a.seeds[world] = s
				return s, nil
			}
			// Geometry mismatch: a stale file from an older world layout.
			// Fall through and rebuild over it.
		}
	}
	s := pipeline.BuildMapSeed(w)
	if path != "" {
		if err := os.MkdirAll(a.seedDir, 0o755); err == nil {
			_ = octomap.WriteSnapshotFile(path, s.Snapshot())
		}
	}
	a.seeds[world] = s
	return s, nil
}

// HasSeed reports whether the golden map for the named world is already in
// the cache (loaded, built, or installed) without triggering a build.
func (a *Assets) HasSeed(world string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.seeds[world]
	return ok
}

// InstallSeedSnapshot installs a golden-map snapshot obtained out of band —
// a worker shard fetching the serialized seed from its dispatcher instead of
// rebuilding it — after geometry-checking it against the named world. A
// snapshot that fails the check (stale geometry, wrong world) is rejected
// and the caller falls back to a local build, which is bit-identical anyway:
// seed sharing only saves the build time, never changes bytes. An already-
// cached world is left untouched.
func (a *Assets) InstallSeedSnapshot(world string, snap *octomap.Snapshot) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.seeds[world]; ok {
		return nil
	}
	w, err := a.worldLocked(world)
	if err != nil {
		return err
	}
	s, err := pipeline.NewMapSeed(w, snap)
	if err != nil {
		return err
	}
	a.seeds[world] = s
	return nil
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
	switch name {
	case "none":
		return nil, nil
	case "gad", "aad":
	default:
		return nil, fmt.Errorf("matrix: unknown detector %q (have none, gad, aad)", name)
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
