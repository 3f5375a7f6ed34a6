package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mavfi/internal/record"
)

// TestMain runs the command itself when the test binary is re-executed
// with MAVFI_MAIN=1.
func TestMain(m *testing.M) {
	if os.Getenv("MAVFI_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mavfi runs the test binary as the mavfi command with args and returns its
// stdout, stderr and exit status.
func mavfi(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MAVFI_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestRecordedCampaignWorkerWidthIdentical records a planner-fault campaign
// at one and at two workers: stdout and every golden and injection
// recording must be byte-identical across the widths, each recording must
// re-simulate to its own bytes, and the fired-injection count mavfi prints
// must agree with the injection recordings' footers.
func TestRecordedCampaignWorkerWidthIdentical(t *testing.T) {
	const runs = 2
	dirs := map[string]string{}
	outs := map[string]string{}
	for _, workers := range []string{"1", "2"} {
		dir := t.TempDir()
		out, errOut, code := mavfi(t, "-kernel", "planner", "-runs", fmt.Sprint(runs), "-seed", "1",
			"-workers", workers, "-record-dir", dir)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d, stderr:\n%s", workers, code, errOut)
		}
		dirs[workers], outs[workers] = dir, out
	}
	if outs["1"] != outs["2"] {
		t.Errorf("stdout differs across worker widths:\n%s\nvs\n%s", outs["1"], outs["2"])
	}
	fired := 0
	for _, name := range []string{"golden", "injection"} {
		for _, dir := range dirs {
			if entries, err := os.ReadDir(filepath.Join(dir, name)); err != nil || len(entries) != runs {
				t.Fatalf("%s/%s holds %d entries (%v), want %d recordings", dir, name, len(entries), err, runs)
			}
		}
		for i := range runs {
			path := record.MissionPath(filepath.Join(dirs["1"], name), i)
			a, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(record.MissionPath(filepath.Join(dirs["2"], name), i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s mission %d: recording differs across worker widths", name, i)
			}
			m, err := record.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Verify(); err != nil {
				t.Errorf("%s mission %d: %v", name, i, err)
			}
			if name == "injection" && m.Footer.Result.Injected {
				fired++
			}
		}
	}
	if want := fmt.Sprintf("injections fired: %d/%d\n", fired, runs); !strings.Contains(outs["1"], want) {
		t.Errorf("stdout does not report the footers' %q:\n%s", want, outs["1"])
	}
}

// TestRecordingFailureExits pins that a recording failure fails the run: a
// directory squatting where injection mission 0's recording goes leaves
// that mission unrecorded, and mavfi exits 1 naming the campaign.
func TestRecordingFailureExits(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(record.MissionPath(filepath.Join(dir, "injection"), 0), 0o755); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := mavfi(t, "-kernel", "planner", "-runs", "2", "-seed", "1", "-workers", "1", "-record-dir", dir)
	if code != 1 || !strings.Contains(errOut, "recording injection campaign") {
		t.Errorf("exit %d, stderr %q; want exit 1 reporting the injection campaign's recording failure", code, errOut)
	}
}
