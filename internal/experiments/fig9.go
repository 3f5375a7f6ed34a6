package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"mavfi/internal/detect"
	"mavfi/internal/pipeline"
	"mavfi/internal/platform"
	"mavfi/internal/qof"
)

// PlatformStudy is the Fig. 9 campaign on one compute platform: golden, FI,
// and both protected settings in the Sparse environment.
type PlatformStudy struct {
	Platform platform.Platform
	Golden   *qof.Campaign
	Injected *qof.Campaign
	GAD      *qof.Campaign
	AAD      *qof.Campaign
}

// Fig9Result reproduces Fig. 9: the portability comparison between the
// i9-9940X and the Cortex-A57 (TX2): the spec/QoF table plus fault injection
// and recovery on both platforms.
type Fig9Result struct {
	Studies []*PlatformStudy
}

// Fig9 runs the Sparse campaign on both platform models. Detectors trained
// on the i9 are reused (the detector watches platform-independent state
// dynamics).
func (c *Context) Fig9() *Fig9Result {
	out := &Fig9Result{}
	w := c.World("Sparse")
	for _, p := range []platform.Platform{platform.I9(), platform.TX2()} {
		ps := &PlatformStudy{Platform: p}
		plat := p

		ps.Golden = c.runCell("Golden", func(i int) pipeline.Config {
			return pipeline.Config{World: w, Platform: plat, Seed: c.Seed + int64(i)}
		})

		ctr := c.calibrate(w, plat)
		planRNG := rand.New(rand.NewSource(c.Seed + int64(len(plat.Name))*71))
		plans := c.stagePlans(ctr, planRNG)

		ps.Injected = c.runInjected("Injection", w, plat, plans, nil)
		ps.GAD = c.runInjected("Gaussian", w, plat, plans, func() detect.Detector { return c.GADetector() })
		ps.AAD = c.runInjected("Autoencoder", w, plat, plans, func() detect.Detector { return c.AADetector() })
		out.Studies = append(out.Studies, ps)
	}
	return out
}

// Recovered returns the fraction of the FI-induced worst-case flight-time
// increase a scheme recovers on study s (the paper reports 79.3% Gaussian
// and 88.0% autoencoder on the TX2).
func (s *PlatformStudy) Recovered(camp *qof.Campaign) float64 {
	return WorstCaseRecovered(s.Golden, s.Injected, camp)
}

// WorstCaseRecovered is the worst-case flight-time recovery that Fig. 6,
// Fig. 9 and their benchmarks report: the share of the rise in the longest
// successful flight, golden to injected, that the protected campaign wins
// back, clamped to [0, 1], and 1 when injection raised nothing. It is
// qof.RecoveredFraction over the negated maxima, because the shorter flight
// is the better one.
func WorstCaseRecovered(golden, injected, protected *qof.Campaign) float64 {
	return qof.RecoveredFraction(-golden.FlightTimeSummary().Max,
		-injected.FlightTimeSummary().Max, -protected.FlightTimeSummary().Max)
}

// String renders the platform spec/QoF table and the recovery summary.
func (f *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 9: computing platform comparison (Sparse)"))
	fmt.Fprintf(&b, "%-22s", "")
	for _, s := range f.Studies {
		fmt.Fprintf(&b, "%16s", s.Platform.Name)
	}
	b.WriteByte('\n')
	specRow := func(name string, val func(*PlatformStudy) string) {
		fmt.Fprintf(&b, "%-22s", name)
		for _, s := range f.Studies {
			fmt.Fprintf(&b, "%16s", val(s))
		}
		b.WriteByte('\n')
	}
	specRow("Core number", func(s *PlatformStudy) string { return fmt.Sprintf("%d", s.Platform.Cores) })
	specRow("Core freq (GHz)", func(s *PlatformStudy) string { return fmt.Sprintf("%.1f", s.Platform.FreqGHz) })
	specRow("Power (Watt)", func(s *PlatformStudy) string { return fmt.Sprintf("%.0f", s.Platform.PowerW) })
	specRow("Flight time (s)", func(s *PlatformStudy) string {
		return fmt.Sprintf("%.1f", s.Golden.FlightTimeSummary().Mean)
	})
	specRow("Flight energy (kJ)", func(s *PlatformStudy) string {
		e := s.Golden.Energies()
		if len(e) == 0 {
			return "-"
		}
		sum := 0.0
		for _, x := range e {
			sum += x
		}
		return fmt.Sprintf("%.1f", sum/float64(len(e))/1000)
	})
	b.WriteByte('\n')
	for _, s := range f.Studies {
		gMax := s.Golden.FlightTimeSummary().Max
		iMax := s.Injected.FlightTimeSummary().Max
		fmt.Fprintf(&b, "[%s] worst flight time: golden=%.1fs FI=%.1fs (%.2fx); recovered GAD=%.1f%% AAD=%.1f%%\n",
			s.Platform.Name, gMax, iMax, iMax/gMax,
			s.Recovered(s.GAD)*100, s.Recovered(s.AAD)*100)
	}
	if len(f.Studies) == 2 {
		r := f.Studies[1].Golden.FlightTimeSummary().Mean / f.Studies[0].Golden.FlightTimeSummary().Mean
		fmt.Fprintf(&b, "TX2/i9 mean golden flight-time ratio: %.2fx (paper table: 322s/115s = 2.8x)\n", r)
	}
	return b.String()
}
