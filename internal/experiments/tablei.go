package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"mavfi/internal/detect"
	"mavfi/internal/pipeline"
	"mavfi/internal/qof"
)

// EnvCampaign is the full detection & recovery study for one environment:
// golden runs, unprotected injection runs, and injection runs protected by
// each scheme. Injections are spread evenly across the three PPC stages
// (the paper's "100 fault injections for each PPC stage").
type EnvCampaign struct {
	Env      string
	Golden   *qof.Campaign
	Injected *qof.Campaign
	GAD      *qof.Campaign
	AAD      *qof.Campaign
}

// TableIResult reproduces Tab. I (success rates in the four environments)
// and carries the campaigns Fig. 6 and Tab. II reuse.
type TableIResult struct {
	Envs []*EnvCampaign
}

// envCampaign runs (or returns the cached) study for one environment.
func (c *Context) envCampaign(name string) *EnvCampaign {
	if ec, ok := c.tableICache[name]; ok {
		return ec
	}
	w := c.World(name)
	ec := &EnvCampaign{Env: name}

	ec.Golden = c.runCell("Golden", func(i int) pipeline.Config {
		return pipeline.Config{World: w, Platform: c.Platform, Seed: c.Seed + int64(i)}
	})

	// One shared injection schedule: run i of every protected campaign
	// replays exactly the fault of unprotected run i, so the comparison is
	// paired (same faults, with and without protection).
	ctr := c.calibrate(w, c.Platform)
	planRNG := rand.New(rand.NewSource(c.Seed + int64(len(name))*997))
	plans := c.stagePlans(ctr, planRNG)

	ec.Injected = c.runInjected("Injection", w, c.Platform, plans, nil)
	ec.GAD = c.runInjected("Gaussian", w, c.Platform, plans, func() detect.Detector { return c.GADetector() })
	ec.AAD = c.runInjected("Autoencoder", w, c.Platform, plans, func() detect.Detector { return c.AADetector() })

	c.tableICache[name] = ec
	return ec
}

// TableI runs (or reuses) the four-environment study.
func (c *Context) TableI() *TableIResult {
	out := &TableIResult{}
	for _, w := range c.Worlds {
		out.Envs = append(out.Envs, c.envCampaign(w.Name))
	}
	return out
}

// String renders Tab. I: success rates per environment and setting.
func (t *TableIResult) String() string {
	var b strings.Builder
	b.WriteString(header("Tab. I: flight success rate in 4 evaluation environments"))
	fmt.Fprintf(&b, "%-18s", "Setting")
	for _, ec := range t.Envs {
		fmt.Fprintf(&b, "%10s", ec.Env)
	}
	b.WriteByte('\n')
	row := func(name string, pick func(*EnvCampaign) *qof.Campaign) {
		fmt.Fprintf(&b, "%-18s", name)
		for _, ec := range t.Envs {
			fmt.Fprintf(&b, "%9.1f%%", pick(ec).SuccessRate()*100)
		}
		b.WriteByte('\n')
	}
	row("Golden Run", func(e *EnvCampaign) *qof.Campaign { return e.Golden })
	row("Injection Run", func(e *EnvCampaign) *qof.Campaign { return e.Injected })
	row("Gaussian-based", func(e *EnvCampaign) *qof.Campaign { return e.GAD })
	row("Autoencoder-based", func(e *EnvCampaign) *qof.Campaign { return e.AAD })

	b.WriteString("\nRecovered failure cases (paper: GAD up to 89.6%, AAD up to 100%):\n")
	for _, ec := range t.Envs {
		g, inj := ec.Golden.SuccessRate(), ec.Injected.SuccessRate()
		fmt.Fprintf(&b, "  %-8s GAD %5.1f%%  AAD %5.1f%%\n", ec.Env,
			qof.RecoveredFraction(g, inj, ec.GAD.SuccessRate())*100,
			qof.RecoveredFraction(g, inj, ec.AAD.SuccessRate())*100)
	}
	return b.String()
}

// Fig6Result reproduces Fig. 6: flight-time distributions of successful
// missions for golden / FI / D&R(Gaussian) / D&R(Autoencoder) per
// environment.
type Fig6Result struct {
	Envs []*EnvCampaign
}

// Fig6 reuses the Tab. I campaigns.
func (c *Context) Fig6() *Fig6Result {
	return &Fig6Result{Envs: c.TableI().Envs}
}

// String renders one box-stat row per setting per environment, plus the
// paper's worst-case recovery percentages.
func (f *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 6: flight time distributions (successful runs)"))
	for _, ec := range f.Envs {
		fmt.Fprintf(&b, "[%s]\n", ec.Env)
		for _, camp := range []*qof.Campaign{ec.Golden, ec.Injected, ec.GAD, ec.AAD} {
			fmt.Fprintf(&b, "  %s\n", Row(camp))
		}
		gMax := ec.Golden.FlightTimeSummary().Max
		iMax := ec.Injected.FlightTimeSummary().Max
		if iMax > gMax && gMax > 0 {
			fmt.Fprintf(&b, "  worst-case flight time: FI %+.1f%% vs golden; recovered GAD %.1f%%, AAD %.1f%%\n",
				(iMax/gMax-1)*100,
				WorstCaseRecovered(ec.Golden, ec.Injected, ec.GAD)*100,
				WorstCaseRecovered(ec.Golden, ec.Injected, ec.AAD)*100)
		}
	}
	return b.String()
}
