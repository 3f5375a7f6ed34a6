package campaign

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mavfi/internal/qof"
)

// synthMission is a deterministic pure function of the mission index: it
// derives every field from MissionSeed(seed, i), standing in for a real
// pipeline.RunMission in engine-level tests.
func synthMission(seed int64) Mission {
	return func(i int) qof.Metrics {
		rng := rand.New(rand.NewSource(MissionSeed(seed, i)))
		m := qof.Metrics{
			FlightTimeS: 60 + rng.Float64()*120,
			EnergyJ:     1e4 + rng.Float64()*1e4,
			DistanceM:   100 + rng.Float64()*50,
			ComputeS:    1 + rng.Float64(),
			DetectS:     rng.Float64() * 0.01,
		}
		if rng.Float64() < 0.2 {
			m.Outcome = qof.Crash
		}
		return m
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	const n = 64
	var ref *qof.Campaign
	for _, workers := range []int{1, 2, 8} {
		r := New(WithWorkers(workers))
		out, err := r.Run(context.Background(), "det", n, synthMission(7))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if out.Campaign.N() != n {
			t.Fatalf("workers=%d: %d results", workers, out.Campaign.N())
		}
		if ref == nil {
			ref = out.Campaign
			continue
		}
		if !reflect.DeepEqual(ref.Results, out.Campaign.Results) {
			t.Errorf("workers=%d: results differ from 1-worker run", workers)
		}
		if ref.SuccessRate() != out.Campaign.SuccessRate() {
			t.Errorf("workers=%d: success rate %v != %v", workers,
				out.Campaign.SuccessRate(), ref.SuccessRate())
		}
		if !reflect.DeepEqual(ref.FlightTimeSummary(), out.Campaign.FlightTimeSummary()) {
			t.Errorf("workers=%d: flight-time summary differs", workers)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := New(WithWorkers(2))
	var mu sync.Mutex
	started := 0
	out, err := r.Run(ctx, "cancel", 10_000, func(i int) qof.Metrics {
		mu.Lock()
		started++
		if started == 8 {
			cancel()
		}
		mu.Unlock()
		return qof.Metrics{FlightTimeS: float64(i)}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := out.Campaign.N(); n == 0 || n >= 10_000 {
		t.Fatalf("partial campaign has %d results", n)
	}
	// The contiguous-prefix invariant: Results[i] is mission i.
	for i, m := range out.Campaign.Results {
		if m.FlightTimeS != float64(i) {
			t.Fatalf("result %d holds mission %v", i, m.FlightTimeS)
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 137
	hits := make([]int, n)
	r := New(WithWorkers(8))
	if err := r.ForEach(context.Background(), n, func(i int) { hits[i]++ }); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestProgressHook(t *testing.T) {
	var mu sync.Mutex
	calls, last := 0, 0
	r := New(WithWorkers(3), WithProgress(func(done, total int) {
		mu.Lock()
		calls++
		if done > last {
			last = done
		}
		if total != 20 {
			t.Errorf("total = %d", total)
		}
		mu.Unlock()
	}))
	if _, err := r.Run(context.Background(), "p", 20, synthMission(1)); err != nil {
		t.Fatal(err)
	}
	if calls != 20 || last != 20 {
		t.Errorf("progress calls=%d last=%d", calls, last)
	}
}

func TestWorkerResolution(t *testing.T) {
	if w := New(WithWorkers(5)).Workers(); w != 5 {
		t.Errorf("explicit workers = %d", w)
	}
	t.Setenv(EnvWorkers, "3")
	if w := New().Workers(); w != 3 {
		t.Errorf("env workers = %d", w)
	}
	// Zero/negative options and garbage env values fall back to defaults.
	if w := New(WithWorkers(0)).Workers(); w != 3 {
		t.Errorf("zero option workers = %d", w)
	}
	t.Setenv(EnvWorkers, "banana")
	if w := New().Workers(); w < 1 {
		t.Errorf("garbage env workers = %d", w)
	}
}

func TestMissionSeed(t *testing.T) {
	seen := map[int64]bool{}
	for _, campaign := range []int64{0, 1, -5, 1 << 40} {
		for i := 0; i < 1000; i++ {
			s := MissionSeed(campaign, i)
			if seen[s] {
				t.Fatalf("seed collision at campaign=%d i=%d", campaign, i)
			}
			seen[s] = true
			if s != MissionSeed(campaign, i) {
				t.Fatal("MissionSeed not stable")
			}
		}
	}
}
