package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a five-number-plus distribution summary of a sample set, the
// textual equivalent of one box in the paper's box-and-whisker flight-time
// figures (Fig. 3a, Fig. 6).
type Summary struct {
	N      int
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	Max    float64
	Mean   float64
	Std    float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an empty
// input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var w Welford
	for _, x := range s {
		w.Add(x)
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		P25:    Percentile(s, 25),
		Median: Percentile(s, 50),
		P75:    Percentile(s, 75),
		P95:    Percentile(s, 95),
		Max:    s[len(s)-1],
		Mean:   w.Mean(),
		Std:    w.Std(),
	}
}

// Percentile returns the p-th percentile (0–100) of sorted sample s using
// linear interpolation between closest ranks. s must be sorted ascending.
func Percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s) == 1 {
		return s[0]
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// String renders the summary as a single row suitable for experiment output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f p25=%.2f med=%.2f p75=%.2f p95=%.2f max=%.2f mean=%.2f±%.2f",
		s.N, s.Min, s.P25, s.Median, s.P75, s.P95, s.Max, s.Mean, s.Std)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
