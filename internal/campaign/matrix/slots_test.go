package matrix

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"mavfi/internal/campaign"
)

// calibrationWaits reports whether a goroutine is parked in Slots.Acquire
// on behalf of an Assets calibration flight.
func calibrationWaits() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "campaign.(*Slots).Acquire(") && strings.Contains(g, "matrix.(*Assets).counter(") {
			return true
		}
	}
	return false
}

// TestCalibrationFliesUnderSlot: RunOn flies an uncached kernel-calibration
// mission under a slot of Spec.Slots, gives up when its context ends while
// it waits (caching nothing), serves a cached counter without a slot, and
// with a pool produces the same bytes as without one.
func TestCalibrationFliesUnderSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	targets, err := ParseTargets("kernel:pid")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Worlds:     []string{"sparse"},
		Targets:    targets,
		Severities: []Severity{{Name: "med", Scale: 0.6}},
		Runs:       2,
		Seed:       5,
		Workers:    2,
	}
	ref, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	pool := campaign.NewSlots(1)
	if err := pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	spec.Slots = pool
	assets := NewAssets()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunOn(ctx, spec, assets)
		done <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); !calibrationWaits(); {
		if time.Now().After(deadline) {
			t.Fatal("the calibration flight never waited for the held slot")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("RunOn canceled during calibration: %v, want context.Canceled", err)
	}
	if n := len(assets.counters); n != 0 {
		t.Fatalf("%d counters cached by a canceled calibration", n)
	}

	pool.Release()
	res, err := RunOn(context.Background(), spec, assets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].CSV() != ref.Cells[0].CSV() || res.SummaryCSV() != ref.SummaryCSV() {
		t.Error("CSVs with a slot pool differ from the run without one")
	}
	if err := pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer pool.Release()
	short, stop := context.WithTimeout(context.Background(), time.Second)
	defer stop()
	if _, err := assets.counter(short, pool, "sparse", spec.Seed, spec.MaxMissionS); err != nil {
		t.Fatalf("cached counter waited for a slot: %v", err)
	}
}
