package sim

import (
	"math"
	"math/rand"

	"mavfi/internal/env"
	"mavfi/internal/geom"
)

// DepthImage is one RGB-D depth frame: a Rows×Cols grid of range readings
// taken from Pos at heading Yaw. Depth[r*Cols+c] is the distance to the
// first surface along the (r, c) ray, or MaxRange for a clear ray.
type DepthImage struct {
	Rows, Cols int
	HFOV, VFOV float64 // radians
	MaxRange   float64
	Pos        geom.Vec3
	Yaw        float64
	Depth      []float64

	// dirs caches the per-pixel world-frame ray directions Capture computed,
	// so downstream kernels (point-cloud generation) reuse them instead of
	// redoing the trigonometry.
	dirs []geom.Vec3
	// azTrig is capture scratch: the cosine and sine of each column's
	// azimuth at this frame's yaw, computed once per column.
	azTrig [][2]float64
	// cast is capture scratch: the frame's rays cast from Pos, with what
	// the cull needs of every obstacle computed once per frame.
	cast env.Caster
}

// Ray returns the unit direction of the (row, col) pixel's ray in the world
// frame.
func (d *DepthImage) Ray(row, col int) geom.Vec3 {
	if d.dirs != nil {
		return d.dirs[row*d.Cols+col]
	}
	az := d.Yaw + (float64(col)/float64(d.Cols-1)-0.5)*d.HFOV
	el := (0.5 - float64(row)/float64(d.Rows-1)) * d.VFOV
	ce := math.Cos(el)
	return geom.V(ce*math.Cos(az), ce*math.Sin(az), math.Sin(el))
}

// At returns the depth reading of the (row, col) pixel.
func (d *DepthImage) At(row, col int) float64 { return d.Depth[row*d.Cols+col] }

// DepthCamera models the forward-facing RGB-D sensor.
type DepthCamera struct {
	Rows, Cols int
	HFOV, VFOV float64 // radians
	MaxRange   float64
	NoiseStd   float64 // multiplicative range noise σ (fraction of range)

	// tab caches the per-row elevation and per-column azimuth-offset tables;
	// built lazily on first capture for the current geometry.
	tab *camTables
}

// camTables holds the capture-loop constants that depend only on the camera
// geometry, not the pose: the elevation trigonometry of each pixel row and
// the azimuth offset of each pixel column. The entries are computed with the
// exact float expressions the per-pixel path uses, so cached captures are
// bit-identical to uncached ones.
type camTables struct {
	rows, cols   int
	hfov, vfov   float64
	sinEl, cosEl []float64 // per row
	azOff        []float64 // per column, added to the pose yaw
}

// tables returns the geometry tables, (re)building them when the camera
// configuration changed.
func (c *DepthCamera) tables() *camTables {
	t := c.tab
	if t != nil && t.rows == c.Rows && t.cols == c.Cols && t.hfov == c.HFOV && t.vfov == c.VFOV {
		return t
	}
	t = &camTables{
		rows: c.Rows, cols: c.Cols, hfov: c.HFOV, vfov: c.VFOV,
		sinEl: make([]float64, c.Rows),
		cosEl: make([]float64, c.Rows),
		azOff: make([]float64, c.Cols),
	}
	for r := 0; r < c.Rows; r++ {
		el := (0.5 - float64(r)/float64(c.Rows-1)) * c.VFOV
		t.sinEl[r] = math.Sin(el)
		t.cosEl[r] = math.Cos(el)
	}
	for col := 0; col < c.Cols; col++ {
		t.azOff[col] = (float64(col)/float64(c.Cols-1) - 0.5) * c.HFOV
	}
	c.tab = t
	return t
}

// DefaultDepthCamera returns a low-resolution depth camera sized for the
// closed-loop simulation: 90°×60° FOV, 24×16 rays, 20 m range — the
// information content that drives OctoMap updates, at a resolution the
// single-core simulator sustains at 10 Hz.
func DefaultDepthCamera() DepthCamera {
	return DepthCamera{
		Rows: 16, Cols: 24,
		HFOV: 90 * math.Pi / 180, VFOV: 60 * math.Pi / 180,
		MaxRange: 20,
		NoiseStd: 0.005,
	}
}

// Capture renders a depth frame of world w from position pos at heading yaw.
// rng supplies the range noise; a nil rng captures noise-free frames.
func (c *DepthCamera) Capture(w *env.World, pos geom.Vec3, yaw float64, rng *rand.Rand) *DepthImage {
	img := &DepthImage{}
	c.CaptureInto(img, w, pos, yaw, rng)
	return img
}

// CaptureInto renders a depth frame into img, reusing its depth and
// ray-direction buffers when their capacity suffices. The steady-state
// mission loop holds one scratch DepthImage per mission and captures every
// frame into it allocation-free; results are bit-identical to Capture.
func (c *DepthCamera) CaptureInto(img *DepthImage, w *env.World, pos geom.Vec3, yaw float64, rng *rand.Rand) {
	img.Rows, img.Cols = c.Rows, c.Cols
	img.HFOV, img.VFOV = c.HFOV, c.VFOV
	img.MaxRange = c.MaxRange
	img.Pos, img.Yaw = pos, yaw
	n := c.Rows * c.Cols
	img.Depth = resized(img.Depth, n)
	img.dirs = resized(img.dirs, n)
	img.azTrig = resized(img.azTrig, c.Cols)
	tab := c.tables()
	img.cast.Reset(w, pos)
	for col, off := range tab.azOff {
		az := yaw + off
		img.azTrig[col] = [2]float64{math.Cos(az), math.Sin(az)}
	}
	for r := 0; r < c.Rows; r++ {
		se, ce := tab.sinEl[r], tab.cosEl[r]
		for col := 0; col < c.Cols; col++ {
			cs := img.azTrig[col]
			dir := geom.V(ce*cs[0], ce*cs[1], se)
			img.dirs[r*c.Cols+col] = dir
			dist := img.cast.Raycast(dir, c.MaxRange)
			if rng != nil && c.NoiseStd > 0 && dist < c.MaxRange {
				dist *= 1 + rng.NormFloat64()*c.NoiseStd
				if dist < 0 {
					dist = 0
				}
				if dist > c.MaxRange {
					dist = c.MaxRange
				}
			}
			img.Depth[r*c.Cols+col] = dist
		}
	}
}

// resized returns s with length n, reusing its array when the capacity
// suffices; elements are left for the caller to overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// IMUReading is one inertial sample.
type IMUReading struct {
	T     float64
	Accel geom.Vec3 // m/s², world frame (gravity-compensated)
	Gyro  float64   // yaw rate, rad/s
	Pos   geom.Vec3 // fused position estimate (visual-inertial odometry)
	Vel   geom.Vec3 // fused velocity estimate
	Yaw   float64
}

// IMU models the inertial sensor plus the sensor-fusion (VIO) estimate the
// pipeline consumes. Noise is additive Gaussian.
type IMU struct {
	AccelNoiseStd float64 // m/s²
	GyroNoiseStd  float64 // rad/s
	PosNoiseStd   float64 // metres, on the fused estimate
	prevYaw       float64
	prevT         float64
	hasPrev       bool
}

// DefaultIMU returns the noise configuration used in the experiments.
func DefaultIMU() *IMU {
	return &IMU{AccelNoiseStd: 0.02, GyroNoiseStd: 0.002, PosNoiseStd: 0.01}
}

// Read samples the IMU and fused state estimate for the given true state.
// rng supplies noise; nil reads are noise-free.
func (u *IMU) Read(st State, rng *rand.Rand) IMUReading {
	r := IMUReading{
		T:     st.T,
		Accel: st.Acc,
		Pos:   st.Pos,
		Vel:   st.Vel,
		Yaw:   st.Yaw,
	}
	if u.hasPrev && st.T > u.prevT {
		r.Gyro = geom.AngleDiff(st.Yaw, u.prevYaw) / (st.T - u.prevT)
	}
	u.prevYaw, u.prevT, u.hasPrev = st.Yaw, st.T, true
	if rng != nil {
		n := func(std float64) float64 { return rng.NormFloat64() * std }
		r.Accel = r.Accel.Add(geom.V(n(u.AccelNoiseStd), n(u.AccelNoiseStd), n(u.AccelNoiseStd)))
		r.Gyro += n(u.GyroNoiseStd)
		r.Pos = r.Pos.Add(geom.V(n(u.PosNoiseStd), n(u.PosNoiseStd), n(u.PosNoiseStd)))
	}
	return r
}
