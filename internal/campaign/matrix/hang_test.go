package matrix

import (
	"context"
	"testing"
	"time"
)

// TestYawBitFlipMissionEnds is the regression test for the geom.WrapAngle
// hang. In this cell (`mavfi matrix -worlds farm -families kernel
// -severities high -runs 8 -seed 19`) mission 3 flips bit 62 of a planner
// way-point yaw. The vehicle's yaw error then became a huge finite number
// that the 2π-step loop could not reduce, and the mission never returned.
// The cell must now finish within a wall-clock cap far above its normal
// run time (well under a second), under -short and -race too.
func TestYawBitFlipMissionEnds(t *testing.T) {
	targets, err := ParseTargets("kernel")
	if err != nil {
		t.Fatal(err)
	}
	sevs, err := ParseSeverities("high")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Worlds: []string{"farm"}, Targets: targets, Severities: sevs, Runs: 8, Seed: 19}
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), spec)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("the farm/kernel/high cell of seed 19 did not finish within 90 s: a mission is stuck")
	}
}
