package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test re-executes its own binary
// with MAVFI_EXPERIMENTS_MAIN set, so a test can observe the exit status and
// stderr of a real invocation.
func TestMain(m *testing.M) {
	if os.Getenv("MAVFI_EXPERIMENTS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckExperiment: every documented name passes, and anything else,
// the empty name and a comma list included, is an error that names every
// valid experiment.
func TestCheckExperiment(t *testing.T) {
	for _, name := range experimentNames {
		if err := checkExperiment(name); err != nil {
			t.Errorf("checkExperiment(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"bogus", "", "fig3,fig4", "Fig3", " fig3"} {
		err := checkExperiment(name)
		if err == nil {
			t.Errorf("checkExperiment(%q) accepted an unknown experiment", name)
			continue
		}
		for _, valid := range experimentNames {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("checkExperiment(%q) = %q, which does not name %q", name, err, valid)
			}
		}
	}
}

// TestUnknownExperimentExits runs the command with names it does not know:
// each run must exit with status 2 and list the valid experiments on stderr,
// where they used to run nothing and exit 0.
func TestUnknownExperimentExits(t *testing.T) {
	for _, name := range []string{"bogus", "", "fig3,fig4"} {
		cmd := exec.Command(os.Args[0], "-exp", name, "-runs", "1", "-train", "1")
		cmd.Env = append(os.Environ(), "MAVFI_EXPERIMENTS_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-exp %q: exit %v, want status 2 (stdout %q)", name, err, stdout.String())
		}
		if !strings.Contains(stderr.String(), strings.Join(experimentNames, ", ")) {
			t.Errorf("-exp %q: stderr %q does not list the valid experiments", name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %q: printed %q before rejecting the name", name, stdout.String())
		}
	}
}
