package octomap

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/geom"
)

// ddaAxis is one axis of a DDA walk's state: the voxel key, the step
// direction (-1, 0 or +1), the walk parameter of the next voxel-boundary
// crossing and the parameter between crossings. A walker axis with step 0
// has tMax = tDelta = +Inf.
type ddaAxis struct {
	k, step      int
	tMax, tDelta float64
}

// ddaState is a DDA walk's state on its three axes.
type ddaState struct{ x, y, z ddaAxis }

// blockExitState runs blockExit on the walk state s with budget maxSteps.
func blockExitState(s ddaState, i, maxSteps int) (ddaState, float64, int, bool) {
	w := rayWalker{
		stepX: s.x.step, stepY: s.y.step, stepZ: s.z.step,
		tDeltaX: s.x.tDelta, tDeltaY: s.y.tDelta, tDeltaZ: s.z.tDelta,
		maxSteps: maxSteps,
	}
	x, y, z, tMaxX, tMaxY, tMaxZ, tNext, next, ok := blockExit(&w, s.x.k, s.y.k, s.z.k, s.x.tMax, s.y.tMax, s.z.tMax, i)
	s.x.k, s.y.k, s.z.k = x, y, z
	s.x.tMax, s.y.tMax, s.z.tMax = tMaxX, tMaxY, tMaxZ
	return s, tNext, next, ok
}

// stepExit is the reference blockExit is held to: the walk's DDA step, one
// voxel at a time and written out independently of blockExit, until a step
// leaves the 8³ block of the start voxel. The walk would stop at a step past
// its budget or entered at +Inf (its overshoot guard), so those end the
// reference without an exit.
func stepExit(s ddaState, i, maxSteps int) (ddaState, float64, int, bool) {
	bx, by, bz := s.x.k>>brickShift, s.y.k>>brickShift, s.z.k>>brickShift
	for {
		var tNext float64
		switch {
		case s.x.tMax <= s.y.tMax && s.x.tMax <= s.z.tMax:
			s.x.k += s.x.step
			tNext = s.x.tMax
			s.x.tMax += s.x.tDelta
		case s.y.tMax <= s.z.tMax:
			s.y.k += s.y.step
			tNext = s.y.tMax
			s.y.tMax += s.y.tDelta
		default:
			s.z.k += s.z.step
			tNext = s.z.tMax
			s.z.tMax += s.z.tDelta
		}
		i++
		if i >= maxSteps || math.IsInf(tNext, 1) {
			return s, 0, 0, false
		}
		if s.x.k>>brickShift != bx || s.y.k>>brickShift != by || s.z.k>>brickShift != bz {
			return s, tNext, i, true
		}
	}
}

// assertBlockExit requires blockExit to agree with stepExit bit for bit.
func assertBlockExit(t *testing.T, what string, s ddaState, i, maxSteps int) {
	t.Helper()
	got, gotT, gotNext, gotOK := blockExitState(s, i, maxSteps)
	want, wantT, wantNext, wantOK := stepExit(s, i, maxSteps)
	if gotOK != wantOK {
		t.Fatalf("%s: %+v i=%d budget=%d: blockExit ok=%v, stepping ok=%v", what, s, i, maxSteps, gotOK, wantOK)
	}
	if !gotOK {
		return
	}
	if got != want || math.Float64bits(gotT) != math.Float64bits(wantT) || gotNext != wantNext {
		t.Fatalf("%s: %+v i=%d budget=%d:\nblockExit %+v tNext=%v next=%d\nstepping  %+v tNext=%v next=%d",
			what, s, i, maxSteps, got, gotT, gotNext, want, wantT, wantNext)
	}
}

// walkerAxis draws one axis state of the kind initAxis produces: a step of
// -1, 0 or +1, tDelta the crossing spacing and tMax the first crossing,
// with step 0 at +Inf.
func walkerAxis(rng *rand.Rand) ddaAxis {
	ax := ddaAxis{k: rng.Intn(256) - 64, step: rng.Intn(3) - 1}
	if ax.step == 0 {
		ax.tMax, ax.tDelta = math.Inf(1), math.Inf(1)
		return ax
	}
	ax.tDelta = math.Exp(rng.NormFloat64()*3) * 0.05
	ax.tMax = rng.Float64() * ax.tDelta
	return ax
}

// TestBlockExitMatchesStepping drives blockExit directly against stepping
// one voxel at a time: random walker states, then constructed exact ties
// (45° diagonals from voxel corners, equal direction components, three-way
// ties), axis-aligned walks and axes with step 0, and budgets that run out
// inside the block.
func TestBlockExitMatchesStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 20000; trial++ {
		s := ddaState{walkerAxis(rng), walkerAxis(rng), walkerAxis(rng)}
		i := rng.Intn(40)
		budget := i + 1 + rng.Intn(30)
		assertBlockExit(t, "random", s, i, budget)
	}

	// Exact ties: every (axis pair, key phase, direction) with equal tMax
	// and tDelta, as a 45° ray from a voxel corner has, plus three-way ties.
	exits := 0
	for kx := 0; kx < 8; kx++ {
		for ky := 0; ky < 8; ky++ {
			for _, sx := range []int{-1, 1} {
				for _, sy := range []int{-1, 1} {
					for _, tz := range []float64{0.5, 1, 2} { // z crossing after, at, before the tie run
						s := ddaState{
							x: ddaAxis{k: 40 + kx, step: sx, tMax: 0.25, tDelta: 0.25},
							y: ddaAxis{k: 16 + ky, step: sy, tMax: 0.25, tDelta: 0.25},
							z: ddaAxis{k: 3, step: 1, tMax: tz, tDelta: tz},
						}
						assertBlockExit(t, "xy tie", s, 0, 100)
						s.x, s.z = s.z, s.x // the same ties on the x–z pair
						assertBlockExit(t, "xz tie", s, 0, 100)
						s.x, s.y = s.y, s.x // and on y–z
						assertBlockExit(t, "yz tie", s, 0, 100)
						if _, _, _, ok := blockExitState(s, 0, 100); ok {
							exits++
						}
					}
				}
			}
			s := ddaState{ // three-way tie: the main diagonal
				x: ddaAxis{k: kx, step: 1, tMax: 0.1, tDelta: 0.1},
				y: ddaAxis{k: ky, step: -1, tMax: 0.1, tDelta: 0.1},
				z: ddaAxis{k: (kx + ky) & 7, step: 1, tMax: 0.1, tDelta: 0.1},
			}
			assertBlockExit(t, "diagonal", s, 0, 100)
		}
	}

	// Axis-aligned walks and step-0 axes, one or two of them, and no axis
	// that moves at all.
	inf := math.Inf(1)
	still := ddaAxis{k: 5, tMax: inf, tDelta: inf}
	for k := 0; k < 8; k++ {
		for _, step := range []int{-1, 1} {
			move := ddaAxis{k: 24 + k, step: step, tMax: 0.3, tDelta: 0.7}
			assertBlockExit(t, "x only", ddaState{move, still, still}, 0, 50)
			assertBlockExit(t, "y only", ddaState{still, move, still}, 0, 50)
			assertBlockExit(t, "z only", ddaState{still, still, move}, 0, 50)
			assertBlockExit(t, "x and z", ddaState{move, still, ddaAxis{k: 2, step: 1, tMax: 1.1, tDelta: 1.3}}, 0, 50)
		}
	}
	if _, _, _, ok := blockExitState(ddaState{still, still, still}, 0, 50); ok {
		t.Fatal("a walk with no moving axis left its block")
	}

	// Budgets that run out inside the block, and the last one that does not.
	s := ddaState{
		x: ddaAxis{k: 8, step: 1, tMax: 0.05, tDelta: 0.1},
		y: ddaAxis{k: 8, step: 1, tMax: 0.07, tDelta: 0.13},
		z: ddaAxis{k: 8, step: 1, tMax: 0.4, tDelta: 0.9},
	}
	_, _, need, ok := stepExit(s, 0, math.MaxInt)
	if !ok {
		t.Fatal("the budget case never leaves its block")
	}
	for budget := 1; budget <= need+1; budget++ {
		assertBlockExit(t, "budget", s, 0, budget)
	}
	if exits == 0 {
		t.Fatal("no tie case left its block: the tie checks were vacuous")
	}
}

// FuzzBlockExit compares blockExit with stepping one voxel at a time over
// arbitrary keys, steps, crossings and spacings, subnormal and huge values
// included. The walker's invariants hold on every input: a step of -1, 0 or
// +1, step 0 with both crossings at +Inf, a spacing that is not negative
// and no NaN, which is the domain blockExit's stepping is defined over.
func FuzzBlockExit(f *testing.F) {
	f.Add(int64(7), int64(0), int64(63), int8(1), int8(1), int8(-1), 0.25, 0.25, 0.5, 0.25, 0.25, 1.0, 3, 40)
	f.Add(int64(-1), int64(8), int64(15), int8(1), int8(0), int8(-1), 1e-300, 1e300, 5e-324, 1e-310, 1e308, 2.0, 0, 22)
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(0), int8(1), int8(-1), int8(1), 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0, 4)
	f.Fuzz(func(t *testing.T, kx, ky, kz int64, sx, sy, sz int8, mx, my, mz, dx, dy, dz float64, i, budget int) {
		axis := func(k int64, step int8, tMax, tDelta float64) ddaAxis {
			ax := ddaAxis{k: int(k), step: int(uint8(step)%3) - 1}
			if ax.step == 0 {
				ax.tMax, ax.tDelta = math.Inf(1), math.Inf(1)
				return ax
			}
			if tDelta = math.Abs(tDelta); math.IsNaN(tDelta) {
				tDelta = 1
			}
			if math.IsNaN(tMax) || math.IsInf(tMax, -1) {
				tMax = -math.MaxFloat64
			}
			ax.tMax, ax.tDelta = tMax, tDelta
			return ax
		}
		s := ddaState{axis(kx, sx, mx, dx), axis(ky, sy, my, dy), axis(kz, sz, mz, dz)}
		assertBlockExit(t, "fuzz", s, i, budget)
	})
}

// lookaheadSegments draws the collision check's look-ahead rays, 10–60 m,
// over queryTestTree's 32×32×16 m volume: rays that stay inside it, rays
// that leave it, axis-aligned rays (along a voxel boundary plane half the
// time) and near-degenerate rays whose direction has components below the
// DDA's step threshold.
func lookaheadSegments(rng *rand.Rand, n int) [][2]geom.Vec3 {
	vol := newTestTree() // for its key range only
	segs := make([][2]geom.Vec3, 0, n)
	for len(segs) < n {
		a := randomInteriorPoint(rng)
		length := 10 + rng.Float64()*50
		var dir geom.Vec3
		switch len(segs) % 4 {
		case 0, 1: // any heading, mostly level
			dir = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()*0.2).Normalize()
		case 2: // axis-aligned, from a voxel boundary half the time
			axis := rng.Intn(3)
			v := 1.0
			if rng.Intn(2) == 0 {
				v = -1
			}
			dir = withAxis(geom.Vec3{}, axis, v)
			if rng.Intn(2) == 0 {
				a = geom.V(math.Round(a.X*2)/2, math.Round(a.Y*2)/2, math.Round(a.Z*2)/2)
			}
		default: // near-degenerate: a component far below the step threshold
			dir = geom.V(rng.NormFloat64(), rng.NormFloat64(), (rng.Float64()-0.5)*1e-13).Normalize()
			if rng.Intn(2) == 0 {
				dir.X = (rng.Float64() - 0.5) * 1e-13
			}
		}
		b := a.Add(dir.Scale(length))
		if len(segs)%3 == 0 {
			// Keep a third inside the volume: shorten to the root cube.
			for range 40 {
				if _, _, _, in := vol.key(b); in {
					break
				}
				b = a.Lerp(b, 0.9)
			}
		}
		segs = append(segs, [2]geom.Vec3{a, b})
	}
	return segs
}

// TestFirstBlockedLookaheadMatchesSequential holds FirstBlocked, with the
// occupancy summary armed, to the per-ray sequential reference on the
// look-ahead rays the collision check casts, bit for bit: these cross many
// zero-count blocks and leave the volume, where the planner-length segments
// of TestFusedMatchesSequentialRandomized mostly stay within a block or two.
func TestFirstBlockedLookaheadMatchesSequential(t *testing.T) {
	leaving, blocked := 0, 0
	for _, seed := range []int64{21, 31, 41, 77} {
		tr := queryTestTree(seed)
		rng := rand.New(rand.NewSource(seed + 2000))
		for si, s := range lookaheadSegments(rng, 600) {
			if _, _, _, in := tr.key(s[1]); !in {
				leaving++
			}
			for _, q := range fusedTestPolicies {
				gotF, gotOK := tr.FirstBlocked(s[0], s[1], q)
				wantF, wantOK := firstBlockedSeq(tr, s[0], s[1], q)
				if gotOK != wantOK || math.Float64bits(gotF) != math.Float64bits(wantF) {
					t.Fatalf("seed %d seg %d policy %+v: FirstBlocked=(%v,%v) sequential=(%v,%v) (%v→%v)",
						seed, si, q, gotF, gotOK, wantF, wantOK, s[0], s[1])
				}
				if gotOK {
					blocked++
				}
			}
		}
	}
	if leaving == 0 || blocked == 0 {
		t.Fatalf("vacuous draw: %d rays leave the volume, %d answers blocked", leaving, blocked)
	}
}

// TestBlockExitStopsAtEndVoxelBlock pins the end-block rule. Each ray runs
// along -x and ends exactly on the block boundary plane x = 16 m, so its
// end voxel is the first voxel of the block above the plane, and the walk
// would leave that block at a parameter within rounding of the overshoot
// guard's 1+1e-9. The voxels just below the plane are occupied: a walk that
// stepped over the end voxel's block would classify them whenever that
// crossing rounds under the guard, and report a collision the ray never
// reaches.
func TestBlockExitStopsAtEndVoxelBlock(t *testing.T) {
	tr := newTestTree()
	for y := 0.25; y < 16; y += 0.5 {
		for z := 0.25; z < 8; z += 0.5 {
			tr.MarkOccupied(geom.V(15.75, y, z))
		}
	}
	policies := []QueryPolicy{{UnknownIsFree: true}, {UnknownIsFree: true, Radius: 0.55}}
	for i := 0; i < 2000; i++ {
		length := 0.3 + float64(i)*0.0078 // a stays inside the 32 m root cube
		y, z := 1.25+float64(i%24)*0.5, 0.75+float64(i%13)*0.5
		a, b := geom.V(16+length, y, z), geom.V(16, y, z)
		for _, q := range policies {
			gotF, gotOK := tr.FirstBlocked(a, b, q)
			wantF, wantOK := firstBlockedSeq(tr, a, b, q)
			if gotOK != wantOK || math.Float64bits(gotF) != math.Float64bits(wantF) {
				t.Fatalf("ray %d %v→%v policy %+v: FirstBlocked=(%v,%v) sequential=(%v,%v)",
					i, a, b, q, gotF, gotOK, wantF, wantOK)
			}
		}
		if _, ok := tr.FirstBlocked(a, b, policies[0]); ok {
			t.Fatalf("ray %d %v→%v reports a collision past its end", i, a, b)
		}
	}
}
