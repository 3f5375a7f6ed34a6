package dispatch

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mavfi/internal/atomicfile"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
)

// The real-process chaos harness: TestMain re-execs this test binary as a
// worker shard or a dispatcher when MAVFI_DISPATCH_ROLE is set, so the
// chaos test can SIGKILL real OS processes — not goroutines — mid-sweep
// and assert the campaign still completes byte-identically.

func TestMain(m *testing.M) {
	switch os.Getenv("MAVFI_DISPATCH_ROLE") {
	case "":
		os.Exit(m.Run())
	case "worker":
		chaosWorkerMain()
	case "dispatch":
		chaosDispatchMain()
	default:
		fmt.Fprintln(os.Stderr, "unknown MAVFI_DISPATCH_ROLE")
		os.Exit(2)
	}
}

// chaosSpec is the sweep the chaos test shards: three calibration-free
// families × two severities, enough cells that a worker SIGKILL and a
// dispatcher restart both land mid-campaign.
func chaosSpec() matrix.Spec {
	return matrix.Spec{
		Worlds: []string{"sparse"},
		Targets: []matrix.Target{
			{Family: faultinject.FamilySensor}, {Family: faultinject.FamilyWind}, {Family: faultinject.FamilyActuator},
		},
		Severities: []matrix.Severity{{Name: "low", Scale: 0.35}, {Name: "high", Scale: 1.0}},
		Runs:       4,
		Seed:       7,
	}
}

// chaosWorkerMain runs a worker shard on an ephemeral loopback port,
// publishing the bound address atomically to MAVFI_DISPATCH_ADDRFILE so the
// parent never reads a torn file. It serves until killed.
func chaosWorkerMain() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	addr := ln.Addr().String()
	if err := atomicfile.WriteFile(os.Getenv("MAVFI_DISPATCH_ADDRFILE"), []byte(addr), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w := NewWorker(WorkerConfig{Workers: 1})
	err = (&http.Server{Handler: w.Handler()}).Serve(ln)
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// chaosDispatchMain runs one dispatcher campaign over the shard addresses
// in MAVFI_DISPATCH_SHARDS, persisting state to MAVFI_DISPATCH_STATE and
// writing final CSVs to MAVFI_DISPATCH_OUT. Exit 0 means the campaign
// completed and the CSVs are on disk.
func chaosDispatchMain() {
	d := New(Config{
		Shards:          strings.Split(os.Getenv("MAVFI_DISPATCH_SHARDS"), ","),
		DisableLocal:    true,
		StateDir:        os.Getenv("MAVFI_DISPATCH_STATE"),
		LeaseTTL:        10 * time.Second,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: 3,
		RetryBase:       20 * time.Millisecond,
		RetryCap:        200 * time.Millisecond,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[dispatch] "+format+"\n", args...)
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := d.Run(ctx, chaosSpec())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := res.WriteCSV(os.Getenv("MAVFI_DISPATCH_OUT")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startChaosChild re-execs the test binary in the given role.
func startChaosChild(t *testing.T, role string, env map[string]string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=TestMain")
	cmd.Env = append(os.Environ(), "MAVFI_DISPATCH_ROLE="+role)
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitForFile polls until the file exists and is non-empty, returning its
// contents.
func waitForFile(t *testing.T, path string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return string(b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", path)
	return ""
}

// waitForCellFiles polls until at least n cell state files exist.
func waitForCellFiles(t *testing.T, stateDir string, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		m, _ := filepath.Glob(filepath.Join(stateDir, "cells", "cell-*.json"))
		if len(m) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d cell files in %s", n, stateDir)
}

func TestChaosKillWorkerAndRestartDispatcher(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions in real processes")
	}
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	outDir := filepath.Join(dir, "out")

	// Two real worker processes.
	var addrs []string
	var workers []*exec.Cmd
	for i := 0; i < 2; i++ {
		addrFile := filepath.Join(dir, fmt.Sprintf("worker-%d.addr", i))
		w := startChaosChild(t, "worker", map[string]string{"MAVFI_DISPATCH_ADDRFILE": addrFile})
		workers = append(workers, w)
		addrs = append(addrs, waitForFile(t, addrFile, 30*time.Second))
	}

	env := map[string]string{
		"MAVFI_DISPATCH_SHARDS": strings.Join(addrs, ","),
		"MAVFI_DISPATCH_STATE":  stateDir,
		"MAVFI_DISPATCH_OUT":    outDir,
	}
	disp := startChaosChild(t, "dispatch", env)

	// Let the campaign get properly underway, then murder one worker with
	// SIGKILL — no handler, no goodbye — and the dispatcher right after.
	waitForCellFiles(t, stateDir, 1, 2*time.Minute)
	if err := workers[0].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let some in-flight units fail
	if err := disp.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	disp.Wait()

	// Restart the dispatcher over the same state dir with the dead worker
	// still in its shard list. It must resume, mark the corpse unhealthy,
	// finish every remaining cell on the survivor, and exit 0.
	disp2 := startChaosChild(t, "dispatch", env)
	if err := disp2.Wait(); err != nil {
		t.Fatalf("restarted dispatcher failed: %v", err)
	}

	// Byte-identity vs the sequential single-process reference.
	ref, err := matrix.Run(context.Background(), chaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(dir, "ref")
	if err := ref.WriteCSV(refDir); err != nil {
		t.Fatal(err)
	}
	refFiles, err := filepath.Glob(filepath.Join(refDir, "*.csv"))
	if err != nil || len(refFiles) == 0 {
		t.Fatalf("no reference CSVs: %v", err)
	}
	gotFiles, err := filepath.Glob(filepath.Join(outDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFiles) != len(refFiles) {
		t.Fatalf("dispatched run wrote %d CSVs, reference wrote %d", len(gotFiles), len(refFiles))
	}
	for _, rf := range refFiles {
		want, err := os.ReadFile(rf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(outDir, filepath.Base(rf)))
		if err != nil {
			t.Fatalf("missing dispatched CSV: %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs between chaos-dispatched and single-process runs", filepath.Base(rf))
		}
	}
}
