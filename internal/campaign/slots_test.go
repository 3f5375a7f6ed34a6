package campaign

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mavfi/internal/qof"
	"mavfi/internal/testutil"
)

// flightGauge counts the missions flying at once and keeps the high-water
// mark, the instrument the slot-pool tests read.
type flightGauge struct{ now, high atomic.Int64 }

func (g *flightGauge) fly() {
	n := g.now.Add(1)
	for {
		h := g.high.Load()
		if n <= h || g.high.CompareAndSwap(h, n) {
			break
		}
	}
	time.Sleep(50 * time.Microsecond)
	g.now.Add(-1)
}

// TestSlotsBoundConcurrentRunners runs several Run and ForEach calls at
// once, each with more workers than the shared pool has slots: together
// they must never fly more missions than the pool holds, and they must be
// able to fill it.
func TestSlotsBoundConcurrentRunners(t *testing.T) {
	const slots = 3
	pool := NewSlots(slots)
	var g flightGauge
	base := synthMission(5)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			r := New(WithWorkers(4), WithSlots(pool))
			out, err := r.Run(context.Background(), "pooled", 40, func(i int) qof.Metrics {
				g.fly()
				return base(i)
			})
			if err != nil || out.Campaign.N() != 40 {
				t.Errorf("Run: err %v, %d missions", err, out.Campaign.N())
			}
		}()
		go func() {
			defer wg.Done()
			r := New(WithWorkers(4), WithSlots(pool))
			if err := r.ForEach(context.Background(), 40, func(int) { g.fly() }); err != nil {
				t.Errorf("ForEach: %v", err)
			}
		}()
	}
	wg.Wait()
	if h := g.high.Load(); h > slots {
		t.Fatalf("%d missions flew at once on a pool of %d slots", h, slots)
	}
	if h := g.high.Load(); h < slots {
		t.Errorf("high-water mark %d: the runners never filled the %d-slot pool", h, slots)
	}
}

// blockedInAcquire counts goroutines parked in Slots.Acquire.
func blockedInAcquire() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "campaign.(*Slots).Acquire(")
}

// TestSlotWaitEndsOnCancel holds the pool's only slot, so a runner's
// workers claim a mission and wait; cancelling the context must end the
// wait, fly nothing, and leave no goroutine behind.
func TestSlotWaitEndsOnCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewSlots(1)
	if err := pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flown atomic.Int64
	type result struct {
		out *Outcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := New(WithWorkers(3), WithSlots(pool)).Run(ctx, "waiting", 8, func(i int) qof.Metrics {
			flown.Add(1)
			return qof.Metrics{}
		})
		done <- result{out, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); blockedInAcquire() < 3; {
		if time.Now().After(deadline) {
			t.Fatal("workers never waited for a slot")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	res := <-done
	if res.err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", res.err)
	}
	if n := flown.Load(); n != 0 || res.out.Campaign.N() != 0 {
		t.Fatalf("%d missions flew (%d recorded) without a slot", n, res.out.Campaign.N())
	}
	// The held slot is still the only one taken: a second Acquire must wait.
	short, stop := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer stop()
	if err := pool.Acquire(short); err != context.DeadlineExceeded {
		t.Fatalf("second Acquire on a full pool: %v, want deadline exceeded", err)
	}
	pool.Release()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlotsLeaveOutcomeUnchanged: a pool changes when missions fly, never
// what they return — including isolated panics. At one worker even the
// online statistics merge in the same order, so the whole Outcome matches.
func TestSlotsLeaveOutcomeUnchanged(t *testing.T) {
	base := synthMission(23)
	mission := func(i int) qof.Metrics {
		if i == 5 {
			panic("pooled panic")
		}
		return base(i)
	}
	for _, workers := range []int{1, 4} {
		plain, err := New(WithWorkers(workers)).Run(context.Background(), "c", 48, mission)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := New(WithWorkers(workers), WithSlots(NewSlots(2))).Run(context.Background(), "c", 48, mission)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Campaign, pooled.Campaign) {
			t.Errorf("workers=%d: campaign differs with a pool", workers)
		}
		if len(plain.Panics) != 1 || len(pooled.Panics) != 1 || plain.Panics[0].Index != pooled.Panics[0].Index {
			t.Errorf("workers=%d: panics %+v vs %+v", workers, plain.Panics, pooled.Panics)
		}
		if workers == 1 && (plain.FlightTime != pooled.FlightTime || plain.EnergyJ != pooled.EnergyJ) {
			t.Errorf("one worker: online statistics differ with a pool")
		}
	}
}

// TestSlotsAllocateNothingPerMission: neither the default nil pool nor a
// real one adds an allocation per mission — a campaign of 256 missions
// allocates exactly what a campaign of one does.
func TestSlotsAllocateNothingPerMission(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	ctx := context.Background()
	for _, r := range []*Runner{New(WithWorkers(1)), New(WithWorkers(1), WithSlots(NewSlots(1)))} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(20, func() { r.ForEach(ctx, n, func(int) {}) })
		}
		if one, many := allocs(1), allocs(256); many != one {
			t.Errorf("pool %v: %v allocations for 256 missions, %v for one", r.slots != nil, many, one)
		}
	}
}
