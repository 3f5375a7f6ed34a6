// Command mavfi-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	mavfi-experiments [-exp all|fig3|fig4|table1|fig6|table2|fig7|fig8|fig9|ablations]
//	                  [-runs N] [-train N] [-seed S] [-fig7csv PATH]
//
// An -exp value outside that list is an error: the command names the valid
// experiments on stderr and exits with status 2, before building anything.
//
// With -runs 100 -train 100 the campaigns match the paper's scale (about a
// thousand simulated missions per environment study); smaller values scale
// everything down proportionally.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"mavfi/internal/experiments"
)

// experimentNames are the values -exp accepts, each experiment in the order
// "all" runs them.
var experimentNames = []string{"all", "fig3", "fig4", "table1", "fig6", "table2", "fig7", "fig8", "fig9", "ablations"}

// checkExperiment returns an error naming the valid experiments when name
// is not one of them. -exp takes exactly one name.
func checkExperiment(name string) error {
	if slices.Contains(experimentNames, name) {
		return nil
	}
	return fmt.Errorf("unknown experiment %q: -exp takes one of %s", name, strings.Join(experimentNames, ", "))
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: "+strings.Join(experimentNames, ", "))
		runs    = flag.Int("runs", 100, "missions per campaign cell (paper: 100)")
		train   = flag.Int("train", 100, "error-free training environments (paper: ~100)")
		seed    = flag.Int64("seed", 1, "campaign seed")
		workers = flag.Int("workers", 0, "campaign worker goroutines (0 = MAVFI_WORKERS, else GOMAXPROCS)")
		fig7csv = flag.String("fig7csv", "", "write Fig. 7 trajectories as CSV to this path prefix")
	)
	flag.Parse()
	if err := checkExperiment(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "mavfi-experiments:", err)
		os.Exit(2)
	}

	opts := experiments.PaperOpts()
	opts.Runs = *runs
	opts.TrainEnvs = *train
	opts.Seed = *seed
	opts.Workers = *workers
	ctx := experiments.NewContext(opts)

	// Campaigns are interruptible: Ctrl-C stops scheduling new missions and
	// the partial results are flagged below.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx.SetContext(sigCtx)

	want := func(name string) bool { return *exp == "all" || *exp == name }
	start := time.Now()

	if want("fig3") {
		fmt.Print(ctx.Fig3())
	}
	if want("fig4") {
		fmt.Print(ctx.Fig4())
	}
	if want("table1") {
		fmt.Print(ctx.TableI())
	}
	if want("fig6") {
		fmt.Print(ctx.Fig6())
	}
	if want("table2") {
		fmt.Print(ctx.TableII())
	}
	if want("fig7") {
		f7 := ctx.Fig7()
		fmt.Print(f7)
		if *fig7csv != "" {
			for i := range f7.Cases {
				path := fmt.Sprintf("%s_case%d.csv", strings.TrimSuffix(*fig7csv, ".csv"), i)
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintln(os.Stderr, "fig7 csv:", err)
					os.Exit(1)
				}
				if err := f7.WriteCSV(f, i); err != nil {
					fmt.Fprintln(os.Stderr, "fig7 csv:", err)
				}
				f.Close()
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
	if want("fig8") {
		fmt.Print(ctx.Fig8())
	}
	if want("fig9") {
		fmt.Print(ctx.Fig9())
	}
	if want("ablations") {
		fmt.Print(ctx.AblationSigma())
		fmt.Print(ctx.AblationPreprocess())
		fmt.Print(ctx.AblationBottleneck())
		fmt.Print(ctx.AblationRecovery())
	}

	if ctx.Interrupted() {
		fmt.Fprintln(os.Stderr, "interrupted: campaigns above are partial")
		os.Exit(1)
	}
	fmt.Printf("\ncompleted in %s\n", time.Since(start).Round(time.Millisecond))
}
