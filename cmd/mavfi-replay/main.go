// Command mavfi-replay records, verifies, and renders mission recordings.
//
// A recording captures everything a mission needs to be re-flown — seed,
// world geometry, platform, fault plans, pre-mission detector state — plus
// the full tick log. Because the simulator is deterministic, re-simulating
// from the header must reproduce the tick log byte-for-byte; -verify is that
// determinism gate, and CI runs it on every push (make replay-verify).
//
// Usage:
//
//	mavfi-replay -record -o DIR [-env sparse]
//	             [-kernel planner | -state wp_x | -fault sensor[:kind]]
//	             [-severity 1.0] [-runs 4] [-seed 1] [-workers 0]
//	    record a campaign cell, one .rec file per mission under DIR
//
//	mavfi-replay -verify PATH...
//	    re-simulate each recording (file or directory of *.rec) and fail
//	    unless the recomputed tick stream byte-matches the log; corrupt or
//	    incomplete files are reported and skipped, the aggregate summary
//	    decides the exit status
//
//	mavfi-replay -csv PATH [> out.csv]
//	    render a recording to the standard trace CSV without re-simulation
//
//	mavfi-replay -info PATH...
//	    print header/footer metadata (files or directories)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/pipeline"
	"mavfi/internal/record"
)

func main() {
	var (
		doRecord = flag.Bool("record", false, "record a campaign cell to -o")
		doVerify = flag.Bool("verify", false, "byte-verify recordings by re-simulation")
		doCSV    = flag.Bool("csv", false, "render one recording to CSV on stdout")
		doInfo   = flag.Bool("info", false, "print recording metadata")

		out      = flag.String("o", "", "output directory for -record")
		envName  = flag.String("env", "sparse", "environment: factory, farm, sparse, dense")
		kernel   = flag.String("kernel", "", "kernel to inject (instruction-level mode)")
		state    = flag.String("state", "", "inter-kernel state to corrupt (message-level mode)")
		fault    = flag.String("fault", "", "zoo fault family[:kind], e.g. sensor, actuator:thrust_loss, wind")
		severity = flag.Float64("severity", 1.0, "fault severity scale for -fault families")
		runs     = flag.Int("runs", 4, "missions to record")
		seed     = flag.Int64("seed", 1, "campaign seed")
		workers  = flag.Int("workers", 0, "campaign worker goroutines (0 = MAVFI_WORKERS, else GOMAXPROCS)")
	)
	flag.Parse()

	modes := 0
	for _, m := range []bool{*doRecord, *doVerify, *doCSV, *doInfo} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "specify exactly one of -record, -verify, -csv, -info")
		os.Exit(2)
	}

	switch {
	case *doRecord:
		if *out == "" {
			fmt.Fprintln(os.Stderr, "-record requires -o DIR")
			os.Exit(2)
		}
		faults := 0
		for _, set := range []bool{*kernel != "", *state != "", *fault != ""} {
			if set {
				faults++
			}
		}
		if faults > 1 {
			fmt.Fprintln(os.Stderr, "specify at most one of -kernel, -state, or -fault")
			os.Exit(2)
		}
		if err := recordCell(*out, *envName, *kernel, *state, *fault, *severity, *runs, *seed, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *doVerify:
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "-verify requires recording paths")
			os.Exit(2)
		}
		if !verifyAll(expand(flag.Args())) {
			os.Exit(1)
		}
	case *doCSV:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "-csv requires exactly one recording")
			os.Exit(2)
		}
		m, err := record.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := m.Trace().WriteCSV(os.Stdout, true); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *doInfo:
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "-info requires recording paths")
			os.Exit(2)
		}
		for _, path := range expand(flag.Args()) {
			printInfo(os.Stdout, path)
		}
	}
}

// recordCell records one campaign cell — nominal, or with the faults
// cmd/mavfi draws (matrix.Assets.SingleCellPlans), so a recorded cell is a
// faithful slice of the full fault-injection campaign.
func recordCell(dir, envName, kernel, state, fault string, severity float64, runs int, seed int64, workers int) error {
	assets := matrix.NewAssets()
	world, err := assets.World(envName)
	if err != nil {
		return err
	}
	plans, err := assets.SingleCellPlans(envName, kernel, state, fault, severity, runs, seed)
	if err != nil {
		return err
	}
	cfg := func(i int) pipeline.Config {
		cfg := pipeline.Config{World: world, Seed: seed + int64(i)}
		if plans != nil {
			cfg.SetFault(plans[i])
		}
		return cfg
	}

	runner := campaign.New(campaign.WithWorkers(workers))
	out, err := record.RunCampaign(context.Background(), runner, dir, "record", runs, cfg)
	if err != nil {
		return err
	}
	c := out.Campaign
	fmt.Printf("recorded %d missions to %s (success %.1f%%)\n", c.N(), dir, c.SuccessRate()*100)
	return nil
}

// expand replaces directory arguments with the *.rec files inside them.
func expand(args []string) []string {
	var paths []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err == nil && st.IsDir() {
			matches, _ := filepath.Glob(filepath.Join(a, "*.rec"))
			if len(matches) == 0 {
				fmt.Fprintf(os.Stderr, "warning: no *.rec files in %s\n", a)
			}
			paths = append(paths, matches...)
			continue
		}
		paths = append(paths, a)
	}
	return paths
}

// verifyAll re-simulates every recording and reports per-file pass/fail.
// A corrupt, incomplete, or diverging file never stops the sweep — every
// remaining path is still checked — and the aggregate summary decides the
// overall result, so one bad recording in a campaign directory surfaces
// without masking the state of the rest.
func verifyAll(paths []string) bool {
	var passed, incomplete, failed int
	for _, path := range paths {
		m, err := record.Open(path)
		if err != nil {
			if errors.Is(err, record.ErrIncomplete) {
				fmt.Printf("INCOMPLETE  %s: %v\n", path, err)
				incomplete++
			} else {
				fmt.Printf("FAIL  %s: %v\n", path, err)
				failed++
			}
			continue
		}
		if err := m.Verify(); err != nil {
			fmt.Printf("FAIL  %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Printf("ok    %s (%d ticks byte-identical)\n", path, m.Footer.Samples)
		passed++
	}
	fmt.Printf("verified %d recordings: %d ok, %d incomplete, %d failed\n",
		len(paths), passed, incomplete, failed)
	return incomplete == 0 && failed == 0
}

// printInfo writes one recording's metadata to w. A path that cannot be
// read as a recording, or one cut off before its header, gets one error
// line instead.
func printInfo(w io.Writer, path string) {
	m, err := record.Open(path)
	if m == nil || (err != nil && !m.Complete && m.Header.Version == 0) {
		fmt.Fprintf(w, "%s: %v\n", path, err)
		return
	}
	h := m.Header
	fault := "none"
	if h.KernelFault != nil {
		fault = fmt.Sprintf("kernel %s idx=%d bit=%d", h.KernelFault.Kernel, h.KernelFault.Index, h.KernelFault.Bit)
	} else if h.StateFault != nil {
		fault = fmt.Sprintf("state %s t=%.2f bit=%d", h.StateFault.State, h.StateFault.Time, h.StateFault.Bit)
	} else if h.SensorFault != nil {
		fault = fmt.Sprintf("sensor %s onset=%.2fs dur=%.2fs sev=%.2f",
			h.SensorFault.Kind, h.SensorFault.OnsetS, h.SensorFault.DurationS, h.SensorFault.Severity)
	} else if h.ActuatorFault != nil {
		fault = fmt.Sprintf("actuator %s onset=%.2fs dur=%.2fs sev=%.2f",
			h.ActuatorFault.Kind, h.ActuatorFault.OnsetS, h.ActuatorFault.DurationS, h.ActuatorFault.Severity)
	} else if h.WindFault != nil {
		fault = fmt.Sprintf("wind onset=%.2fs dur=%.2fs sev=%.2f",
			h.WindFault.OnsetS, h.WindFault.DurationS, h.WindFault.Severity)
	}
	det := "none"
	if h.Detector != nil {
		det = h.Detector.Kind
	}
	status := "complete"
	if !m.Complete {
		status = "INCOMPLETE (no footer)"
	}
	fmt.Fprintf(w, "%s: %s\n", path, status)
	fmt.Fprintf(w, "  world=%s seed=%d planner=%s tick=%.3fs platform=%s\n",
		h.World.Name, h.Seed, h.PlannerName, h.TickS, h.Platform.Name)
	fmt.Fprintf(w, "  fault=%s detector=%s\n", fault, det)
	if m.Complete {
		f := m.Footer
		fmt.Fprintf(w, "  ticks=%d payload=%dB digest=%s\n", f.Samples, f.PayloadBytes, f.Digest)
		fmt.Fprintf(w, "  result: outcome=%s flight=%.1fs injected=%v alarms=%d events=%d\n",
			f.Result.OutcomeName, f.Result.FlightTimeS, f.Result.Injected, f.Result.Alarms, len(m.Events))
	} else if n := len(m.Snapshots); n > 0 {
		s := m.Snapshots[n-1]
		fmt.Fprintf(w, "  last snapshot: %d ticks, t=%.1fs pos=%v\n", s.Samples, s.T, s.Pos)
	}
	for _, e := range m.Events {
		fmt.Fprintf(w, "  event t=%7.2fs tick=%5d %s\n", e.T, e.Tick, strings.ReplaceAll(e.Tags, ";", " "))
	}
}
