// Package main_test is the benchmark harness: one benchmark per table and
// figure of the paper's evaluation, plus the ablation benches DESIGN.md
// commits to. Each benchmark runs a scaled-down campaign per iteration
// (override the scale with MAVFI_BENCH_RUNS) and reports the experiment's
// headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result row. Paper-scale numbers come from
// cmd/mavfi-experiments with -runs 100.
package main_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"mavfi/internal/campaign"
	"mavfi/internal/experiments"
	"mavfi/internal/pipeline"
	"mavfi/internal/qof"
)

// benchOpts returns the campaign scale for benchmarks: small enough to
// iterate, large enough that direction is meaningful.
func benchOpts() experiments.Opts {
	o := experiments.PaperOpts()
	o.Runs = 8
	o.TrainEnvs = 10
	o.AAD.Epochs = 10
	if s := os.Getenv("MAVFI_BENCH_RUNS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			o.Runs = n
		}
	}
	return o
}

// BenchmarkMission is the base unit: one golden closed-loop mission in
// Sparse (the cost every campaign cell pays per run).
func BenchmarkMission(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	w := ctx.World("Sparse")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := pipeline.RunMission(pipeline.Config{World: w, Seed: int64(i)})
		if res.Outcome != qof.Success && res.Outcome != qof.Crash && res.Outcome != qof.Timeout {
			b.Fatal("implausible outcome")
		}
	}
}

// BenchmarkCampaignRunnerScaling runs one fixed golden campaign through the
// parallel engine at increasing worker counts. On an N-core host the
// per-iteration time should fall roughly N-fold from workers=1 to
// workers=N; the reported success rate is identical at every width
// (bit-identical results are the engine's core guarantee). Only widths up
// to GOMAXPROCS run, since a wider row measures contention rather than
// scaling, and with GOMAXPROCS 1 there is no curve at all, so it skips.
func BenchmarkCampaignRunnerScaling(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		b.Skip("scaling needs GOMAXPROCS > 1")
	}
	o := benchOpts()
	ctx := experiments.NewContext(o)
	w := ctx.World("Sparse")
	n := 2 * o.Runs
	for _, workers := range []int{1, 2, 4, 8} {
		if workers > procs {
			break
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := campaign.New(campaign.WithWorkers(workers))
			for i := 0; i < b.N; i++ {
				out, err := r.Run(context.Background(), "scaling", n, func(j int) qof.Metrics {
					seed := campaign.MissionSeed(1, j)
					return pipeline.RunMission(pipeline.Config{World: w, Seed: seed}).Metrics
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Campaign.SuccessRate()*100, "success%")
			}
		})
	}
}

// BenchmarkFig3 regenerates Fig. 3: per-kernel fault injection in Sparse.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f := ctx.Fig3()
		b.ReportMetric(f.WorstCaseIncrease()*100, "worstΔt%")
		b.ReportMetric(f.SuccessDrop()*100, "Δsuccess%")
	}
}

// BenchmarkFig4 regenerates Fig. 4: inter-kernel state corruption.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f := ctx.Fig4()
		g := f.Golden.FlightTimeSummary().Max
		worst := 0.0
		for _, cell := range f.Cells {
			if m := cell.FlightTimeSummary().Max; g > 0 && m/g-1 > worst {
				worst = m/g - 1
			}
		}
		b.ReportMetric(worst*100, "worstΔt%")
	}
}

// BenchmarkBitField regenerates the §III-B bit-field sensitivity analysis
// (sign/exponent vs mantissa impact).
func BenchmarkBitField(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f := ctx.Fig4()
		var mantissa, signExp float64
		for field, camp := range f.ByField {
			s := camp.FlightTimeSummary()
			if field.String() == "mantissa" {
				mantissa = s.Max
			} else if s.Max > signExp {
				signExp = s.Max
			}
		}
		if mantissa > 0 {
			b.ReportMetric(signExp/mantissa, "signExp/mantissa-worst")
		}
	}
}

// BenchmarkTableI regenerates Tab. I: success rates across the four
// environments under golden/FI/GAD/AAD.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		tab := ctx.TableI()
		worstRecovGAD, worstRecovAAD := 1.0, 1.0
		for _, ec := range tab.Envs {
			g, inj := ec.Golden.SuccessRate(), ec.Injected.SuccessRate()
			if r := qof.RecoveredFraction(g, inj, ec.GAD.SuccessRate()); r < worstRecovGAD {
				worstRecovGAD = r
			}
			if r := qof.RecoveredFraction(g, inj, ec.AAD.SuccessRate()); r < worstRecovAAD {
				worstRecovAAD = r
			}
		}
		b.ReportMetric(worstRecovGAD*100, "GAD-recov%")
		b.ReportMetric(worstRecovAAD*100, "AAD-recov%")
	}
}

// BenchmarkFig6 regenerates Fig. 6: flight-time distribution recovery.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f := ctx.Fig6()
		// Report the Sparse worst-case flight-time recovery fractions.
		ec := f.Envs[2]
		if ec.Injected.FlightTimeSummary().Max > ec.Golden.FlightTimeSummary().Max {
			b.ReportMetric(experiments.WorstCaseRecovered(ec.Golden, ec.Injected, ec.GAD)*100, "GAD-recov%")
			b.ReportMetric(experiments.WorstCaseRecovered(ec.Golden, ec.Injected, ec.AAD)*100, "AAD-recov%")
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7: trajectory analysis in Dense.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f := ctx.Fig7()
		if len(f.Cases) > 0 {
			cs := f.Cases[0]
			b.ReportMetric((cs.FaultyS/cs.GoldenS-1)*100, "faultΔt%")
			b.ReportMetric((cs.RecoveredS/cs.GoldenS-1)*100, "recovΔt%")
		}
	}
}

// BenchmarkTableII regenerates Tab. II: detection/recovery compute overhead.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		tab := ctx.TableII()
		b.ReportMetric(experiments.MaxSum(tab.Gaussian)*100, "GAD-ovh%")
		b.ReportMetric(experiments.MaxSum(tab.Autoencoder)*100, "AAD-ovh%")
	}
}

// BenchmarkFig8 regenerates Fig. 8: DMR/TMR vs anomaly D&R on two airframes.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f := ctx.Fig8()
		b.ReportMetric(f.Ratio("AirSim UAV"), "airsim-TMR-x")
		b.ReportMetric(f.Ratio("DJI Spark"), "spark-TMR-x")
	}
}

// BenchmarkFig9 regenerates Fig. 9: the i9 vs TX2 platform comparison.
func BenchmarkFig9(b *testing.B) {
	o := benchOpts()
	o.Runs = 4 // TX2 missions are long; keep the bench tractable
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(o)
		f := ctx.Fig9()
		mi9 := f.Studies[0].Golden.FlightTimeSummary().Mean
		mtx2 := f.Studies[1].Golden.FlightTimeSummary().Mean
		if mi9 > 0 {
			b.ReportMetric(mtx2/mi9, "tx2/i9-x")
		}
	}
}

// BenchmarkAblationSigma sweeps GAD's n-sigma threshold.
func BenchmarkAblationSigma(b *testing.B) {
	o := benchOpts()
	o.Runs = 4
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(o)
		res := ctx.AblationSigma()
		// Report the FP spread across the sweep.
		b.ReportMetric(res.Cells[0].GoldenFPs, "FP@n2")
		b.ReportMetric(res.Cells[len(res.Cells)-1].GoldenFPs, "FP@n6")
	}
}

// BenchmarkAblationPreprocess compares the sign+exponent transform against
// raw-value deltas.
func BenchmarkAblationPreprocess(b *testing.B) {
	o := benchOpts()
	o.Runs = 4
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(o)
		res := ctx.AblationPreprocess()
		b.ReportMetric(res.Cells[0].WorstTimeS, "signexp-worst-s")
		b.ReportMetric(res.Cells[1].WorstTimeS, "raw-worst-s")
	}
}

// BenchmarkAblationBottleneck sweeps the autoencoder bottleneck width.
func BenchmarkAblationBottleneck(b *testing.B) {
	o := benchOpts()
	o.Runs = 4
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(o)
		res := ctx.AblationBottleneck()
		for _, cell := range res.Cells {
			_ = cell
		}
		b.ReportMetric(res.Cells[2].SuccessRate*100, "paper-bn3-success%")
	}
}

// BenchmarkAblationRecovery compares per-stage against control-only
// recovery scopes.
func BenchmarkAblationRecovery(b *testing.B) {
	o := benchOpts()
	o.Runs = 4
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(o)
		res := ctx.AblationRecovery()
		b.ReportMetric(res.Cells[0].OverheadPct*100, "perstage-ovh%")
		b.ReportMetric(res.Cells[1].OverheadPct*100, "ctrlonly-ovh%")
	}
}

// BenchmarkAblationAADScope compares the paper's single shared autoencoder
// against the GAD-style per-stage alternative routed through control-only
// recovery (§IV-D's rationale for one detector).
func BenchmarkAblationAADScope(b *testing.B) {
	o := benchOpts()
	o.Runs = 4
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(o)
		res := ctx.AblationRecovery()
		// Cells: GAD per-stage, AAD control-only, GAD→control-only.
		b.ReportMetric(res.Cells[1].SuccessRate*100, "sharedAAD-success%")
		b.ReportMetric(res.Cells[2].SuccessRate*100, "perstage-ctrlonly-success%")
	}
}
