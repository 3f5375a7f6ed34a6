package qof

import (
	"math"
	"testing"
)

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Success: "success", Crash: "crash", Timeout: "timeout", BatteryOut: "battery-out",
	} {
		if o.String() != want {
			t.Errorf("String(%d) = %s", o, o.String())
		}
	}
	if !(Metrics{Outcome: Success}).Succeeded() || (Metrics{Outcome: Crash}).Succeeded() {
		t.Error("Succeeded wrong")
	}
}

func TestOverheadFrac(t *testing.T) {
	m := Metrics{
		ComputeS:           10,
		DetectS:            0.1,
		RecoverPerceptionS: 0.5,
		RecoverPlanningS:   0.3,
		RecoverControlS:    0.1,
	}
	if got := m.RecoverS(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("RecoverS = %v", got)
	}
	if got := m.OverheadFrac(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("OverheadFrac = %v", got)
	}
	if (Metrics{}).OverheadFrac() != 0 {
		t.Error("zero-compute overhead not 0")
	}
}

func TestCampaignAggregation(t *testing.T) {
	c := &Campaign{Name: "test"}
	c.Add(Metrics{Outcome: Success, FlightTimeS: 10, EnergyJ: 100})
	c.Add(Metrics{Outcome: Success, FlightTimeS: 20, EnergyJ: 200})
	c.Add(Metrics{Outcome: Crash, FlightTimeS: 5, EnergyJ: 50})
	c.Add(Metrics{Outcome: Timeout, FlightTimeS: 300, EnergyJ: 999})

	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
	if got := c.SuccessRate(); got != 0.5 {
		t.Errorf("SuccessRate = %v", got)
	}
	// Flight times and energies come from successful runs only.
	ft := c.FlightTimes()
	if len(ft) != 2 || ft[0] != 10 || ft[1] != 20 {
		t.Errorf("FlightTimes = %v", ft)
	}
	es := c.Energies()
	if len(es) != 2 || es[0] != 100 {
		t.Errorf("Energies = %v", es)
	}
	s := c.FlightTimeSummary()
	if s.N != 2 || s.Min != 10 || s.Max != 20 {
		t.Errorf("Summary = %+v", s)
	}
	// Empty campaign.
	e := &Campaign{}
	if e.SuccessRate() != 0 || e.MeanOverheadFrac() != 0 {
		t.Error("empty campaign aggregates non-zero")
	}
}

func TestMeanOverheadFrac(t *testing.T) {
	c := &Campaign{}
	c.Add(Metrics{ComputeS: 10, DetectS: 1})          // 10%
	c.Add(Metrics{ComputeS: 10, RecoverPlanningS: 2}) // 20%
	if got := c.MeanOverheadFrac(); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("MeanOverheadFrac = %v", got)
	}
}

func TestRecoveredFraction(t *testing.T) {
	cases := []struct {
		golden, injected, protected, want float64
	}{
		{1.0, 0.8, 1.0, 1.0},   // fully recovered
		{1.0, 0.8, 0.9, 0.5},   // half recovered
		{1.0, 0.8, 0.8, 0.0},   // nothing recovered
		{1.0, 0.8, 0.7, 0.0},   // protection made it worse → clamp 0
		{1.0, 0.8, 1.1, 1.0},   // better than golden → clamp 1
		{0.9, 0.95, 0.99, 1.0}, // injection didn't hurt → trivially recovered
	}
	for _, cse := range cases {
		if got := RecoveredFraction(cse.golden, cse.injected, cse.protected); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("RecoveredFraction(%v,%v,%v) = %v, want %v",
				cse.golden, cse.injected, cse.protected, got, cse.want)
		}
	}
}
