// Command mavfi-replay verifies and renders mission recordings.
//
// A recording captures everything a mission needs to be re-flown — seed,
// world geometry, platform, fault plans, pre-mission detector state — plus
// the full tick log. Because the simulator is deterministic, re-simulating
// from the header must reproduce the tick log byte-for-byte; -verify is that
// determinism gate, and CI runs it on every push (make replay-verify).
// Recordings are written by `mavfi -record-dir DIR`, one .rec file per
// mission under DIR/golden and DIR/injection.
//
// Usage:
//
//	mavfi-replay -verify PATH...
//	    re-simulate each recording (a file, or every *.rec file in a
//	    directory tree) and fail unless the recomputed tick stream
//	    byte-matches the log; corrupt or incomplete files are reported and
//	    skipped, the aggregate summary decides the exit status, and
//	    arguments that hold no recording fail
//
//	mavfi-replay -csv PATH [> out.csv]
//	    render a recording to the standard trace CSV without re-simulation
//
//	mavfi-replay -info PATH...
//	    print header/footer metadata (files or directory trees)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"mavfi/internal/record"
)

func main() {
	var (
		doVerify = flag.Bool("verify", false, "byte-verify recordings by re-simulation")
		doCSV    = flag.Bool("csv", false, "render one recording to CSV on stdout")
		doInfo   = flag.Bool("info", false, "print recording metadata")
	)
	flag.Parse()

	modes := 0
	for _, m := range []bool{*doVerify, *doCSV, *doInfo} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "specify exactly one of -verify, -csv, -info")
		os.Exit(2)
	}

	switch {
	case *doVerify:
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "-verify requires recording paths")
			os.Exit(2)
		}
		if !verifyAll(os.Stdout, expand(flag.Args())) {
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

// expand replaces each directory argument with the *.rec files in its tree,
// in lexical order, so `mavfi -record-dir DIR`'s DIR/golden and
// DIR/injection are both found from DIR.
func expand(args []string) []string {
	var paths []string
	for _, a := range args {
		if st, err := os.Stat(a); err != nil || !st.IsDir() {
			paths = append(paths, a)
			continue
		}
		n := len(paths)
		filepath.WalkDir(a, func(path string, d fs.DirEntry, err error) error {
			// An entry the walk cannot read stays listed, so that
			// verifying it fails rather than the tree passing without it.
			if err != nil || (d.Type().IsRegular() && filepath.Ext(path) == ".rec") {
				paths = append(paths, path)
			}
			return nil
		})
		if len(paths) == n {
			fmt.Fprintf(os.Stderr, "warning: no *.rec files in %s\n", a)
		}
	}
	return paths
}

// verifyAll re-simulates every recording and reports per-file pass/fail
// to w. A corrupt, incomplete, or diverging file never stops the sweep —
// every remaining path is still checked — and the aggregate summary decides
// the overall result, so one bad recording in a campaign directory surfaces
// without masking the state of the rest. No paths at all is a failure: a
// gate that verified nothing has shown nothing.
func verifyAll(w io.Writer, paths []string) bool {
	var passed, incomplete, failed int
	for _, path := range paths {
		m, err := record.Open(path)
		if err != nil {
			if errors.Is(err, record.ErrIncomplete) {
				fmt.Fprintf(w, "INCOMPLETE  %s: %v\n", path, err)
				incomplete++
			} else {
				fmt.Fprintf(w, "FAIL  %s: %v\n", path, err)
				failed++
			}
			continue
		}
		if err := m.Verify(); err != nil {
			fmt.Fprintf(w, "FAIL  %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Fprintf(w, "ok    %s (%d ticks byte-identical)\n", path, m.Footer.Samples)
		passed++
	}
	fmt.Fprintf(w, "verified %d recordings: %d ok, %d incomplete, %d failed\n",
		len(paths), passed, incomplete, failed)
	return len(paths) > 0 && incomplete == 0 && failed == 0
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
