// Package stats provides the statistical machinery used throughout the MAVFI
// reproduction: the online Welford mean/variance recurrence the paper's
// Gaussian anomaly detector is built on (Eqs. 1–2, after Knuth TAOCP vol. 2),
// plus the distribution summaries used to report the flight-time figures.
package stats

import "math"

// Welford maintains a running mean and variance of a stream of samples using
// the numerically stable recurrence from the paper:
//
//	M_k = M_{k-1} + (x_k − M_{k-1})/k        (Eq. 1)
//	S_k = S_{k-1} + (x_k − M_{k-1})(x_k − M_k) (Eq. 2)
//
// with M_1 = x_1, S_1 = 0 and σ = sqrt(S_k/(k−1)) for k ≥ 2.
//
// The zero value is ready to use.
type Welford struct {
	n int
	m float64
	s float64
}

// Add folds sample x into the running statistics.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.m = x
		w.s = 0
		return
	}
	prevM := w.m
	w.m += (x - prevM) / float64(w.n)
	w.s += (x - prevM) * (x - w.m)
}

// N returns the number of samples folded in so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean M_k, or 0 before any sample.
func (w *Welford) Mean() float64 { return w.m }

// Var returns the unbiased sample variance S_k/(k−1), or 0 for fewer than
// two samples.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.s / float64(w.n-1)
}

// Std returns the sample standard deviation σ.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Sigma returns how many standard deviations x lies from the running mean.
// It returns 0 when fewer than two samples have been seen, and +Inf when the
// distribution has collapsed to a point (σ = 0) and x differs from the mean.
func (w *Welford) Sigma(x float64) float64 {
	if w.n < 2 {
		return 0
	}
	sd := w.Std()
	d := math.Abs(x - w.m)
	if sd == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / sd
}

// Reset clears the accumulated statistics.
func (w *Welford) Reset() { *w = Welford{} }

// State exports the accumulator for serialisation.
func (w *Welford) State() (n int, mean, s float64) { return w.n, w.m, w.s }

// Restore reinstates a previously exported accumulator state.
func (w *Welford) Restore(n int, mean, s float64) { w.n, w.m, w.s = n, mean, s }
