// Command mavfi runs fault-injection campaigns: single-cell campaigns with
// one fault model against the golden baseline, and full campaign-matrix
// sweeps over (world × fault family × severity × detector × recovery).
//
// Usage:
//
//	mavfi [-env sparse] [-kernel pcgen|octomap|colcheck|planner|pid]
//	      [-state time_to_collision|...|vz]
//	      [-fault kernel|state|sensor|actuator|wind[:kind]] [-severity 1.0]
//	      [-detector none|gad|aad] [-runs 100] [-train 50] [-seed 1]
//	      [-record-dir data/campaigns/cell]
//
//	mavfi matrix [-worlds sparse,factory] [-families all]
//	      [-severities low,high] [-detectors none,gad] [-recoveries on]
//	      [-runs 4] [-seed 1] [-workers 0] [-csv-dir DIR]
//	      [-deadline 0] [-max-mission 0] [-train 12]
//
// The single-cell mode injects exactly one fault model: -kernel/-state are
// the paper's compute faults, -fault draws from any zoo family (optionally
// restricted to one mechanism, e.g. -fault sensor:ray_dropout). With
// -record-dir, every mission (golden and injection) is persisted as a
// replayable recording under DIR/golden and DIR/injection, and a mission
// that cannot be recorded makes the command exit 1; inspect or byte-verify
// the recordings with mavfi-replay.
//
// The matrix mode runs the deterministic campaign matrix: cells and
// missions are seed-stable and the per-cell CSVs (-csv-dir) are
// byte-identical at any -workers width.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/detect"
	"mavfi/internal/pipeline"
	"mavfi/internal/qof"
	"mavfi/internal/record"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "matrix" {
		runMatrix(os.Args[2:])
		return
	}

	var (
		envName  = flag.String("env", "sparse", "environment: factory, farm, sparse, dense")
		kernel   = flag.String("kernel", "", "kernel to inject (instruction-level mode)")
		state    = flag.String("state", "", "inter-kernel state to corrupt (message-level mode)")
		fault    = flag.String("fault", "", "zoo fault family[:kind], e.g. sensor, actuator:thrust_loss, wind")
		severity = flag.Float64("severity", 1.0, "fault severity scale for -fault families")
		detector = flag.String("detector", "none", "protection: none, gad, aad")
		runs     = flag.Int("runs", 100, "fault-injection missions")
		train    = flag.Int("train", 50, "training environments when a detector is enabled")
		seed     = flag.Int64("seed", 1, "campaign seed")
		workers  = flag.Int("workers", 0, "campaign worker goroutines (0 = MAVFI_WORKERS, else GOMAXPROCS)")
		recDir   = flag.String("record-dir", "", "record every mission under DIR/{golden,injection} (replayable with mavfi-replay)")
	)
	flag.Parse()

	modes := 0
	for _, set := range []bool{*kernel != "", *state != "", *fault != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "specify exactly one of -kernel, -state, or -fault")
		os.Exit(2)
	}
	// The matrix check refuses an unknown detector before anything flies.
	if err := (matrix.Spec{Detectors: []string{*detector}}).Check(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	assets := matrix.NewAssets()
	world, err := assets.World(*envName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The injection campaign's whole plan schedule is drawn up front (the
	// plan RNG is consumed sequentially), then its missions are sharded.
	plans, err := assets.SingleCellPlans(*envName, *kernel, *state, *fault, *severity, *runs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	runner := campaign.New(campaign.WithWorkers(*workers))
	ctx := context.Background()

	var det func() detect.Detector
	if *detector != "none" {
		fmt.Printf("training detectors on %d environments...\n", *train)
		if det, err = assets.Detector(ctx, runner, *detector, *seed, *train); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// The golden baseline, then the injection campaign. With -record-dir
	// every mission is recorded under DIR/golden or DIR/injection, and a
	// recording failure exits 1 once its campaign has flown.
	fly := func(name string, cfg func(i int) pipeline.Config) *qof.Campaign {
		dir := ""
		if *recDir != "" {
			dir = filepath.Join(*recDir, name)
		}
		out, err := record.RunCampaign(ctx, runner, dir, name, *runs, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "recording %s campaign: %v\n", name, err)
			os.Exit(1)
		}
		return out.Campaign
	}
	golden := fly("golden", func(i int) pipeline.Config {
		return pipeline.Config{World: world, Seed: *seed + int64(i)}
	})
	camp := fly("injection", func(i int) pipeline.Config {
		cfg := pipeline.Config{World: world, Seed: *seed + int64(i)}
		cfg.SetFault(plans[i])
		if det != nil {
			cfg.Detector = det()
		}
		return cfg
	})
	injected := 0
	for _, m := range camp.Results {
		if m.InjectedAtS > 0 { // a fault fires on a tick, never at t = 0
			injected++
		}
	}

	report("golden    ", golden)
	report("injection ", camp)
	fmt.Printf("injections fired: %d/%d\n", injected, *runs)
	g, c := golden.SuccessRate(), camp.SuccessRate()
	if g > c {
		fmt.Printf("success-rate drop: %.1f%%\n", (g-c)*100)
	}
}

func report(name string, c *qof.Campaign) {
	s := c.FlightTimeSummary()
	fmt.Printf("%s n=%d success=%.1f%% flight time %s\n", name, c.N(), c.SuccessRate()*100, s)
}

// runMatrix is the `mavfi matrix` subcommand: a deterministic campaign
// matrix over (world × family × severity × detector × recovery).
func runMatrix(argv []string) {
	fs := flag.NewFlagSet("mavfi matrix", flag.ExitOnError)
	axes := matrix.AxisFlags(fs)
	var (
		workers  = fs.Int("workers", 0, "campaign worker goroutines (0 = MAVFI_WORKERS, else GOMAXPROCS)")
		deadline = fs.Duration("deadline", 0, "per-mission wall-clock deadline (0 = none; breaks byte-identity)")
		csvDir   = fs.String("csv-dir", "", "write per-cell and summary CSVs under DIR")
		fidelity = fs.Bool("fidelity", false, "run the fidelity study: the whole matrix at each approximate-mode ladder setting, emitting per-cell paper-figure deltas (ignores -map-seed/-near-stride)")
	)
	fs.Parse(argv)

	spec, err := axes()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec.Workers = *workers
	spec.Deadline = *deadline
	spec.Progress = func(done, total int) {
		if done%50 == 0 || done == total {
			fmt.Printf("missions %d/%d\n", done, total)
		}
	}
	if *fidelity {
		study, err := matrix.FidelityStudy(context.Background(), spec, matrix.DefaultFidelityLadder(), nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := study.WriteCSV(*csvDir); err != nil {
				fmt.Fprintln(os.Stderr, "writing fidelity CSV:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote fidelity.csv under %s\n", *csvDir)
			return
		}
		fmt.Print(study.CSV())
		return
	}
	res, err := matrix.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(res.Table())
	if *csvDir != "" {
		if err := res.WriteCSV(*csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "writing CSVs:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d cell CSVs + summary.csv under %s\n", len(res.Cells), *csvDir)
	}
	for _, p := range res.Panics {
		fmt.Fprintf(os.Stderr, "mission %d panicked: %s\n", p.Index, p.Value)
	}
}
