// Package qof defines the quality-of-flight metrics MAVFI reports — the
// paper's system-level, application-aware resilience metrics: flight time,
// mission success rate, and mission energy — and aggregation helpers for
// fault-injection campaigns.
package qof

import (
	"fmt"

	"mavfi/internal/stats"
)

// Outcome classifies how a mission ended.
type Outcome int

const (
	// Success: the package-delivery mission completed.
	Success Outcome = iota
	// Crash: the vehicle collided with an obstacle, ground, or boundary.
	Crash
	// Timeout: the mission exceeded its time budget (e.g., stuck
	// replanning or detoured beyond recovery).
	Timeout
	// BatteryOut: the battery was exhausted mid-mission.
	BatteryOut
	// Panicked: the mission function panicked; the campaign engine isolated
	// the panic and recorded this structured outcome (campaign.MissionPanic
	// carries the stack).
	Panicked
	// DeadlineExceeded: the mission exceeded the campaign's per-mission
	// wall-clock deadline and its result was abandoned.
	DeadlineExceeded
)

// NumOutcomes is the number of defined Outcome values, for callers keeping
// per-outcome tallies in a dense array.
const NumOutcomes = int(DeadlineExceeded) + 1

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case Crash:
		return "crash"
	case Timeout:
		return "timeout"
	case BatteryOut:
		return "battery-out"
	case Panicked:
		return "panic"
	case DeadlineExceeded:
		return "deadline-exceeded"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Metrics is one mission's QoF record.
type Metrics struct {
	Outcome     Outcome
	FlightTimeS float64
	EnergyJ     float64
	DistanceM   float64

	// Compute-time accounting (simulated seconds), the basis of the
	// overhead table (Tab. II).
	ComputeS           float64 // total PPC kernel compute time
	DetectS            float64 // anomaly detection compute time
	RecoverPerceptionS float64 // recomputation time charged to perception
	RecoverPlanningS   float64
	RecoverControlS    float64

	// Detection/recovery event counts.
	Alarms     int
	Recomputes int

	// Fault-response timing (0 = never): when the mission's fault fired and
	// when the detector first alarmed, the pair behind campaign
	// detection-latency aggregates. Mission clocks start at one tick > 0,
	// so 0 is unambiguous.
	InjectedAtS float64
	FirstAlarmS float64
}

// DetectionLatencyS returns the injection-to-first-alarm latency, or ok =
// false when the mission had no fired fault or no alarm (or alarmed only
// before the fault, a false positive).
func (m Metrics) DetectionLatencyS() (float64, bool) {
	if m.InjectedAtS <= 0 || m.FirstAlarmS <= 0 || m.FirstAlarmS < m.InjectedAtS {
		return 0, false
	}
	return m.FirstAlarmS - m.InjectedAtS, true
}

// Succeeded reports mission success.
func (m Metrics) Succeeded() bool { return m.Outcome == Success }

// RecoverS returns total recovery compute time.
func (m Metrics) RecoverS() float64 {
	return m.RecoverPerceptionS + m.RecoverPlanningS + m.RecoverControlS
}

// OverheadFrac returns the detection+recovery share of total compute time
// (the paper's Tab. II percentages).
func (m Metrics) OverheadFrac() float64 {
	if m.ComputeS <= 0 {
		return 0
	}
	return (m.DetectS + m.RecoverS()) / m.ComputeS
}

// Campaign aggregates the metrics of a set of missions run under one
// configuration.
type Campaign struct {
	Name    string
	Results []Metrics
}

// Add appends one mission result.
func (c *Campaign) Add(m Metrics) { c.Results = append(c.Results, m) }

// N returns the number of missions recorded.
func (c *Campaign) N() int { return len(c.Results) }

// SuccessRate returns the fraction of successful missions.
func (c *Campaign) SuccessRate() float64 {
	if len(c.Results) == 0 {
		return 0
	}
	n := 0
	for _, m := range c.Results {
		if m.Succeeded() {
			n++
		}
	}
	return float64(n) / float64(len(c.Results))
}

// CountOutcome returns the number of missions that ended with outcome o.
func (c *Campaign) CountOutcome(o Outcome) int {
	n := 0
	for _, m := range c.Results {
		if m.Outcome == o {
			n++
		}
	}
	return n
}

// MeanDetectionLatencyS averages detection latency over the missions where
// it is defined (fault fired and an alarm followed); ok is false when none.
func (c *Campaign) MeanDetectionLatencyS() (float64, bool) {
	sum, n := 0.0, 0
	for _, m := range c.Results {
		if lat, ok := m.DetectionLatencyS(); ok {
			sum += lat
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// FlightTimes returns the flight times of successful missions only, the
// population the paper's flight-time figures plot.
func (c *Campaign) FlightTimes() []float64 {
	var out []float64
	for _, m := range c.Results {
		if m.Succeeded() {
			out = append(out, m.FlightTimeS)
		}
	}
	return out
}

// Energies returns mission energies of successful missions in joules.
func (c *Campaign) Energies() []float64 {
	var out []float64
	for _, m := range c.Results {
		if m.Succeeded() {
			out = append(out, m.EnergyJ)
		}
	}
	return out
}

// FlightTimeSummary summarises successful-mission flight times.
func (c *Campaign) FlightTimeSummary() stats.Summary {
	return stats.Summarize(c.FlightTimes())
}

// MeanOverheadFrac averages the per-mission overhead fraction.
func (c *Campaign) MeanOverheadFrac() float64 {
	if len(c.Results) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range c.Results {
		sum += m.OverheadFrac()
	}
	return sum / float64(len(c.Results))
}

// RecoveredFraction computes the paper's "recovered failure cases" metric:
// given the golden success rate, the injected (unprotected) rate, and this
// campaign's protected rate, it returns the fraction of injection-induced
// failures the scheme recovered (1.0 = fully recovered to golden; 0 = none).
func RecoveredFraction(golden, injected, protected float64) float64 {
	lost := golden - injected
	if lost <= 0 {
		return 1
	}
	rec := (protected - injected) / lost
	if rec < 0 {
		return 0
	}
	if rec > 1 {
		return 1
	}
	return rec
}
