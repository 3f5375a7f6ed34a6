package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// naive two-pass mean/std for cross-checking Welford.
func naive(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	if len(xs) > 1 {
		std = math.Sqrt(varSum / float64(len(xs)-1))
	}
	return mean, std
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
			w.Add(xs[i])
		}
		m, s := naive(xs)
		if math.Abs(w.Mean()-m) > 1e-9*math.Abs(m)+1e-9 {
			t.Fatalf("mean %v != %v", w.Mean(), m)
		}
		if math.Abs(w.Std()-s) > 1e-9*s+1e-9 {
			t.Fatalf("std %v != %v", w.Std(), s)
		}
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Error("zero value not clean")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Var() != 0 {
		t.Errorf("single sample: mean=%v var=%v", w.Mean(), w.Var())
	}
	w.Add(5)
	if w.Std() != 0 {
		t.Errorf("two equal samples std=%v", w.Std())
	}
	// σ=0 and x != mean → infinite sigma.
	if !math.IsInf(w.Sigma(6), 1) {
		t.Errorf("Sigma at zero std = %v", w.Sigma(6))
	}
	if w.Sigma(5) != 0 {
		t.Errorf("Sigma at mean = %v", w.Sigma(5))
	}
	w.Reset()
	if w.N() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Error("single-element percentile")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		s := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s = append(s, x)
			}
		}
		if len(s) < 2 {
			return true
		}
		sort.Float64s(s)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(s, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	// Summarize must not mutate its input.
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Summarize mutated input")
	}
}

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Mean(xs) != 2.25 || Max(xs) != 7 || Min(xs) != -1 {
		t.Error("Mean/Max/Min wrong")
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-slice helpers should return 0")
	}
}
