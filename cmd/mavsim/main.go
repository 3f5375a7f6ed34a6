// Command mavsim flies a single mission and reports its quality-of-flight
// metrics, optionally dumping the trajectory as CSV. It is the quickest way
// to watch the closed-loop PPC pipeline work.
//
// Usage:
//
//	mavsim [-env factory|farm|sparse|dense] [-planner rrt|rrtstar|rrtconnect]
//	       [-platform i9|tx2] [-seed N] [-trace out.csv]
package main

import (
	"flag"
	"fmt"
	"os"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/pipeline"
	"mavfi/internal/platform"
)

func main() {
	var (
		envName  = flag.String("env", "sparse", "environment: factory, farm, sparse, dense")
		planner  = flag.String("planner", "rrtstar", "motion planner: rrt, rrtstar, rrtconnect")
		plat     = flag.String("platform", "i9", "compute platform: i9, tx2")
		seed     = flag.Int64("seed", 1, "mission seed")
		traceOut = flag.String("trace", "", "write trajectory CSV to this path")
	)
	flag.Parse()

	world, err := matrix.World(*envName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := pipeline.Config{World: world, Seed: *seed, Record: *traceOut != ""}

	switch *planner {
	case "rrt":
		cfg.Planner = pipeline.PlannerRRT
	case "rrtstar":
		cfg.Planner = pipeline.PlannerRRTStar
	case "rrtconnect":
		cfg.Planner = pipeline.PlannerRRTConnect
	default:
		fmt.Fprintf(os.Stderr, "unknown planner %q\n", *planner)
		os.Exit(2)
	}

	switch *plat {
	case "i9":
		cfg.Platform = platform.I9()
	case "tx2":
		cfg.Platform = platform.TX2()
	default:
		fmt.Fprintf(os.Stderr, "unknown platform %q\n", *plat)
		os.Exit(2)
	}

	res := pipeline.RunMission(cfg)
	fmt.Printf("environment: %s   planner: %s   platform: %s   seed: %d\n",
		cfg.World.Name, cfg.Planner, cfg.Platform.Name, *seed)
	fmt.Printf("outcome:      %v\n", res.Outcome)
	fmt.Printf("flight time:  %.1f s\n", res.FlightTimeS)
	fmt.Printf("distance:     %.1f m\n", res.DistanceM)
	fmt.Printf("energy:       %.1f kJ\n", res.EnergyJ/1000)
	fmt.Printf("plans:        %d (%d failed)\n", res.Plans, res.PlanFails)
	fmt.Printf("compute time: %.2f s (simulated, %s)\n", res.ComputeS, cfg.Platform.Name)

	if *traceOut != "" && res.Trace != nil {
		res.Trace.Label = cfg.World.Name
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := res.Trace.WriteCSV(f, true); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trajectory:   %s (%d samples)\n", *traceOut, len(res.Trace.Samples))
	}
}
