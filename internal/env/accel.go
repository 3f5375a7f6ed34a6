package env

import (
	"math"

	"mavfi/internal/geom"
)

// accelMinObstacles is the obstacle count below which spatial indexing is
// skipped: the preset scenes hold a handful of cuboids, where the linear
// scan is already faster than a grid traversal. Generated stress worlds
// (dense forests, city blocks) cross this threshold and get the index.
const accelMinObstacles = 12

// obstacleIndex is a uniform-grid spatial index over a World's obstacle set,
// built once per World and shared read-only by every concurrent mission.
// Cells store obstacle indices in CSR layout (cellStart/items) so queries
// allocate nothing. Queries return exactly the values the linear scans
// return: candidate obstacles are tested with the same geom predicates, and
// min-distance/any-hit reductions are order-independent, so accelerated
// worlds stay bit-identical to unindexed ones.
type obstacleIndex struct {
	box           geom.AABB // covers every obstacle
	nx, ny, nz    int
	csx, csy, csz float64 // cell sizes
	cellStart     []int32 // CSR offsets, len nx*ny*nz+1
	items         []int32 // obstacle indices
}

// buildIndex constructs the grid. Cell sizes target ~4 m — comparable to the
// obstacle footprints this workload generates — clamped to at most 64 cells
// per axis.
func buildIndex(obstacles []geom.AABB) *obstacleIndex {
	idx := &obstacleIndex{}
	box := geom.AABB{Min: geom.V(1, 1, 1), Max: geom.V(0, 0, 0)} // empty
	for _, ob := range obstacles {
		box = box.Union(ob)
	}
	idx.box = box
	size := box.Size()
	dim := func(s float64) int {
		n := int(math.Ceil(s / 4))
		if n < 1 {
			n = 1
		}
		if n > 64 {
			n = 64
		}
		return n
	}
	idx.nx, idx.ny, idx.nz = dim(size.X), dim(size.Y), dim(size.Z)
	idx.csx = size.X / float64(idx.nx)
	idx.csy = size.Y / float64(idx.ny)
	idx.csz = size.Z / float64(idx.nz)

	cells := idx.nx * idx.ny * idx.nz
	counts := make([]int32, cells+1)
	eachCell := func(ob geom.AABB, fn func(cell int)) {
		x0, x1 := idx.cellRange(ob.Min.X, ob.Max.X, idx.box.Min.X, idx.csx, idx.nx)
		y0, y1 := idx.cellRange(ob.Min.Y, ob.Max.Y, idx.box.Min.Y, idx.csy, idx.ny)
		z0, z1 := idx.cellRange(ob.Min.Z, ob.Max.Z, idx.box.Min.Z, idx.csz, idx.nz)
		for z := z0; z <= z1; z++ {
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					fn((z*idx.ny+y)*idx.nx + x)
				}
			}
		}
	}
	for i := range obstacles {
		eachCell(obstacles[i], func(cell int) { counts[cell+1]++ })
	}
	for c := 0; c < cells; c++ {
		counts[c+1] += counts[c]
	}
	idx.cellStart = counts
	idx.items = make([]int32, idx.cellStart[cells])
	cursor := make([]int32, cells)
	for i := range obstacles {
		eachCell(obstacles[i], func(cell int) {
			idx.items[idx.cellStart[cell]+cursor[cell]] = int32(i)
			cursor[cell]++
		})
	}
	return idx
}

// cellRange maps a world-coordinate interval to the covered (clamped)
// inclusive cell range on one axis. Both ends clamp into [0, n-1]: an
// interval starting exactly on the box's max face would otherwise floor to
// cell n and index past the grid.
func (idx *obstacleIndex) cellRange(lo, hi, origin, cs float64, n int) (int, int) {
	c0 := int(math.Floor((lo - origin) / cs))
	c1 := int(math.Floor((hi - origin) / cs))
	if c0 < 0 {
		c0 = 0
	}
	if c0 > n-1 {
		c0 = n - 1
	}
	if c1 < 0 {
		c1 = 0
	}
	if c1 > n-1 {
		c1 = n - 1
	}
	if c1 < c0 {
		c1 = c0
	}
	return c0, c1
}

// anyWithin reports whether any obstacle surface lies within radius of p —
// the accelerated core of Occupied/Collides. Obstacles may be tested more
// than once when they span several cells; the OR-reduction makes duplicates
// harmless (a per-query mailbox would need mutation and break read-only
// sharing across mission goroutines).
func (idx *obstacleIndex) anyWithin(obstacles []geom.AABB, p geom.Vec3, radius float64) bool {
	x0, x1 := idx.cellRange(p.X-radius, p.X+radius, idx.box.Min.X, idx.csx, idx.nx)
	y0, y1 := idx.cellRange(p.Y-radius, p.Y+radius, idx.box.Min.Y, idx.csy, idx.ny)
	z0, z1 := idx.cellRange(p.Z-radius, p.Z+radius, idx.box.Min.Z, idx.csz, idx.nz)
	// Points far outside the indexed box cannot be near any obstacle; the
	// clamped range would still scan boundary cells, so reject early.
	if idx.box.Dist(p) > radius {
		return false
	}
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				cell := (z*idx.ny+y)*idx.nx + x
				for _, oi := range idx.items[idx.cellStart[cell]:idx.cellStart[cell+1]] {
					if obstacles[oi].Dist(p) <= radius {
						return true
					}
				}
			}
		}
	}
	return false
}

// raycast returns min(best, first obstacle intersection along origin+t*dir),
// walking grid cells front-to-back with a 3-D DDA and stopping as soon as
// the running minimum precedes the next cell. Candidates go through the same
// geom.AABB.Hit on the same prepared ray as the linear scan, so the returned
// distance is bit-identical to scanning every obstacle.
func (idx *obstacleIndex) raycast(obstacles []geom.AABB, origin, dir geom.Vec3, best float64) float64 {
	end := origin.Add(dir.Scale(best))
	ok, t0, t1 := idx.box.SegmentIntersection(origin, end)
	if !ok {
		return best
	}
	ray := geom.NewRay(origin, dir) // prepared once for every candidate test
	// Enter slightly inside the box so the starting cell is unambiguous.
	p0 := origin.Add(dir.Scale(best * (t0 + 1e-12)))
	enter, exit := best*t0, best*t1

	cellOf := func(v, o, cs float64, n int) int {
		c := int(math.Floor((v - o) / cs))
		if c < 0 {
			c = 0
		}
		if c > n-1 {
			c = n - 1
		}
		return c
	}
	x := cellOf(p0.X, idx.box.Min.X, idx.csx, idx.nx)
	y := cellOf(p0.Y, idx.box.Min.Y, idx.csy, idx.ny)
	z := cellOf(p0.Z, idx.box.Min.Z, idx.csz, idx.nz)

	stepX, tMaxX, tDeltaX := rayAxis(origin.X-idx.box.Min.X, dir.X, idx.csx, x)
	stepY, tMaxY, tDeltaY := rayAxis(origin.Y-idx.box.Min.Y, dir.Y, idx.csy, y)
	stepZ, tMaxZ, tDeltaZ := rayAxis(origin.Z-idx.box.Min.Z, dir.Z, idx.csz, z)

	tCell := enter
	for {
		cell := (z*idx.ny+y)*idx.nx + x
		for _, oi := range idx.items[idx.cellStart[cell]:idx.cellStart[cell+1]] {
			if hit, t := obstacles[oi].Hit(ray); hit && t >= 0 && t < best {
				best = t
			}
		}
		// Next cell boundary along the ray.
		next := tMaxX
		axis := 0
		if tMaxY < next {
			next, axis = tMaxY, 1
		}
		if tMaxZ < next {
			next, axis = tMaxZ, 2
		}
		// Every obstacle in a later cell intersects the ray at t >= tCell of
		// that cell (within DDA rounding); once the running minimum precedes
		// the next boundary by a safety margin, later cells cannot improve it.
		if next > exit || best <= tCell || best+1e-9 <= next {
			return best
		}
		tCell = next
		switch axis {
		case 0:
			x += stepX
			tMaxX += tDeltaX
			if x < 0 || x >= idx.nx {
				return best
			}
		case 1:
			y += stepY
			tMaxY += tDeltaY
			if y < 0 || y >= idx.ny {
				return best
			}
		default:
			z += stepZ
			tMaxZ += tDeltaZ
			if z < 0 || z >= idx.nz {
				return best
			}
		}
	}
}

// rayAxis computes DDA stepping state for one grid axis given the ray's
// origin offset within the grid, its direction component, the cell size, and
// the starting cell.
func rayAxis(pos, dir, cs float64, cell int) (step int, tMax, tDelta float64) {
	switch {
	case dir > 1e-12:
		step = 1
		tMax = (float64(cell+1)*cs - pos) / dir
		tDelta = cs / dir
	case dir < -1e-12:
		step = -1
		tMax = (pos - float64(cell)*cs) / -dir
		tDelta = cs / -dir
	default:
		step = 0
		tMax = math.Inf(1)
		tDelta = math.Inf(1)
	}
	return step, tMax, tDelta
}
