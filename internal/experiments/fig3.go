package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
	"mavfi/internal/qof"
	"mavfi/internal/stats"
)

// Fig3Result reproduces Fig. 3: application-aware end-to-end fault-tolerance
// analysis with the instruction-level injector in the Sparse environment —
// flight-time distributions (3a) and success rates (3b) for the golden runs
// and per-kernel injections across the PPC pipeline.
type Fig3Result struct {
	// Cells holds, in paper order: Golden, P.C. Gen., OctoMap, Col. Ck.,
	// RRT, RRTConnect, RRT*, PID.
	Cells []*qof.Campaign
}

// fig3Kernels pairs each Fig. 3 column with its kernel and, for the planner
// columns, the planner variant exercised.
var fig3Kernels = []struct {
	name    string
	kernel  faultinject.Kernel
	planner pipeline.PlannerKind
}{
	{"P.C. Gen.", faultinject.KernelPCGen, pipeline.PlannerRRTStar},
	{"OctoMap", faultinject.KernelOctoMap, pipeline.PlannerRRTStar},
	{"Col. Ck.", faultinject.KernelColCheck, pipeline.PlannerRRTStar},
	{"RRT", faultinject.KernelPlanner, pipeline.PlannerRRT},
	{"RRTConnect", faultinject.KernelPlanner, pipeline.PlannerRRTConnect},
	{"RRT*", faultinject.KernelPlanner, pipeline.PlannerRRTStar},
	{"PID", faultinject.KernelPID, pipeline.PlannerRRTStar},
}

// Fig3 runs the per-kernel campaign: Runs golden missions plus Runs
// single-bit injections per kernel, all in Sparse.
func (c *Context) Fig3() *Fig3Result {
	w := c.World("Sparse")
	out := &Fig3Result{}

	out.Cells = append(out.Cells, c.runCell("Golden", func(i int) pipeline.Config {
		return pipeline.Config{World: w, Platform: c.Platform, Seed: c.Seed + int64(i)}
	}))

	ctr := c.calibrate(w, c.Platform)
	for ki, k := range fig3Kernels {
		// Draw the cell's Runs injection plans up front (sequentially, as
		// NewPlan consumes the RNG) so each mission is a pure function of
		// its index and the cell can shard across workers.
		planRNG := rand.New(rand.NewSource(c.Seed + int64(ki)*101 + 7))
		plans := make([]faultinject.Plan, c.Runs)
		for i := range plans {
			plans[i] = faultinject.NewPlan(k.kernel, ctr.Count(k.kernel), planRNG)
		}
		kcell := k
		out.Cells = append(out.Cells, c.runCell(k.name, func(i int) pipeline.Config {
			return pipeline.Config{
				World:       w,
				Platform:    c.Platform,
				Planner:     kcell.planner,
				Seed:        c.Seed + int64(i),
				KernelFault: &plans[i],
			}
		}))
	}
	return out
}

// String renders the figure as text: one row per column of the paper's
// Fig. 3a/3b.
func (f *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString(header("Fig. 3: per-kernel fault injection (Sparse)"))
	golden := f.Cells[0]
	gm := golden.FlightTimeSummary()
	for _, cell := range f.Cells {
		s := cell.FlightTimeSummary()
		fmt.Fprintf(&b, "%s", Row(cell))
		if cell != golden && gm.Median > 0 {
			fmt.Fprintf(&b, "  worst-case Δt=%+5.1f%%  Δsuccess=%+5.1f%%",
				(s.Max/gm.Max-1)*100, (cell.SuccessRate()-golden.SuccessRate())*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WorstCaseIncrease returns the largest relative flight-time increase of any
// injected kernel's worst case over the golden worst case (the paper reports
// up to +57.3%).
func (f *Fig3Result) WorstCaseIncrease() float64 {
	gm := f.Cells[0].FlightTimeSummary()
	worst := 0.0
	for _, cell := range f.Cells[1:] {
		s := cell.FlightTimeSummary()
		if gm.Max > 0 {
			if inc := s.Max/gm.Max - 1; inc > worst {
				worst = inc
			}
		}
	}
	return worst
}

// RangeWidth returns max-min of a cell's flight times, the "range" the paper
// compares across kernels (planning/control ranges are much wider than
// perception's).
func RangeWidth(c *qof.Campaign) float64 {
	s := c.FlightTimeSummary()
	return s.Max - s.Min
}

// SuccessDrop returns golden success minus the worst injected success (the
// paper reports up to 8% in Fig. 3b).
func (f *Fig3Result) SuccessDrop() float64 {
	g := f.Cells[0].SuccessRate()
	worst := 0.0
	for _, cell := range f.Cells[1:] {
		if d := g - cell.SuccessRate(); d > worst {
			worst = d
		}
	}
	return worst
}

// PerceptionVsPlanningRange compares the mean flight-time range of the
// perception kernels against planning+control kernels, quantifying the
// paper's central Fig. 3 finding.
func (f *Fig3Result) PerceptionVsPlanningRange() (perception, planningControl float64) {
	perc := []float64{RangeWidth(f.Cells[1]), RangeWidth(f.Cells[2]), RangeWidth(f.Cells[3])}
	pc := []float64{RangeWidth(f.Cells[4]), RangeWidth(f.Cells[5]), RangeWidth(f.Cells[6]), RangeWidth(f.Cells[7])}
	return stats.Mean(perc), stats.Mean(pc)
}
