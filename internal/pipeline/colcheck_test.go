package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/env"
	"mavfi/internal/faultinject"
	"mavfi/internal/geom"
	"mavfi/internal/perception"
)

// TestWaypointScanReuseMatchesFreshScan holds the collision check's
// way-point reuse (perception.Checker.CheckFrom) to a fresh scan on every
// tick of real missions: each check the mission makes is re-run on a new
// Checker, which has no previous scan to reuse, and the two reports must
// agree bit for bit. The missions fly Sparse and Dense, exact and on a
// golden-map fork with memoization, under state:wp_x faults (the pursued
// way-point's X corrupted in transit and written back into the
// trajectory), half of them under GAD with recovery on. The test requires
// the kinds of tick a stale reuse would get wrong to have happened: fired
// write-back faults, replans, recoveries, map insertions between checks,
// and ticks where the report moved while the map stood still (new
// way-points) and where it moved across an insertion (a changed map). A
// reuse that skipped the bit comparison or the generation check fails it.
func TestWaypointScanReuseMatchesFreshScan(t *testing.T) {
	gad, _ := trainQuick(t)
	rng := rand.New(rand.NewSource(1))
	worlds := []*env.World{env.Sparse(rng), env.Dense(rng)}
	var ticks, faults, replans, recoveries, inserts, movedSameMap, movedNewMap int
	for wi, w := range worlds {
		golden := RunMission(Config{World: w, Seed: 4})
		seed := BuildMapSeed(w)
		for i, bit := range []uint{52, 53, 55, 58, 61, 62, 63, 60} {
			plan := faultinject.StatePlan{
				State: faultinject.StateWpX,
				Time:  golden.FlightTimeS * (0.15 + 0.08*float64(i)),
				Bit:   bit,
			}
			cfg := Config{World: w, Seed: int64(10*wi + i), StateFault: &plan}
			if i%2 == 1 {
				g := *gad
				cfg.Detector = &g
			}
			if i%4 == 2 {
				cfg.MapSeed, cfg.MemoSkip, cfg.NearFieldStride = seed, true, 2
			}
			r := newRunner(cfg)
			var last perception.Report
			var lastGen uint64
			started := false
			r.checkAudit = func(pos, vel geom.Vec3, traj []geom.Vec3, from int, rep perception.Report) {
				fresh := &perception.Checker{Horizon: r.checker.Horizon, Policy: r.checker.Policy}
				want := fresh.CheckFrom(r.tree, pos, vel, traj, from, nil)
				if !sameReport(rep, want) {
					t.Fatalf("%s mission %d at %.1fs: reused check %+v, fresh scan %+v", w.Name, i, r.t, rep, want)
				}
				gen := r.tree.Generation()
				if started {
					moved := rep.FutureCollisionSeq != last.FutureCollisionSeq
					switch {
					case gen != lastGen:
						inserts++
						if moved {
							movedNewMap++
						}
					case moved:
						movedSameMap++
					}
				}
				started, last, lastGen = true, rep, gen
				ticks++
			}
			res := r.run()
			if res.Injected {
				faults++
			}
			replans += res.Plans - 1
			recoveries += res.Recomputes
		}
	}
	t.Logf("%d checks: %d fired faults, %d replans, %d recoveries, %d map insertions, "+
		"%d reports moved on a standing map, %d across an insertion",
		ticks, faults, replans, recoveries, inserts, movedSameMap, movedNewMap)
	if faults == 0 || replans == 0 || recoveries == 0 || inserts == 0 || movedSameMap == 0 || movedNewMap == 0 {
		t.Fatal("vacuous run: some kind of tick a stale reuse would get wrong never happened")
	}
}

// sameReport compares two reports bit for bit.
func sameReport(a, b perception.Report) bool {
	return math.Float64bits(a.T) == math.Float64bits(b.T) &&
		math.Float64bits(a.TimeToCollision) == math.Float64bits(b.TimeToCollision) &&
		math.Float64bits(a.FutureCollisionSeq) == math.Float64bits(b.FutureCollisionSeq)
}
