package main

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself when the test re-executes its own binary
// with MAVFI_SERVER_MAIN set, so a test can observe a real invocation.
func TestMain(m *testing.M) {
	if os.Getenv("MAVFI_SERVER_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWarmListIsTrimmed starts the campaign service with a -warm list whose
// entries carry white space and an empty entry, as a shell user types them:
// it must build the worlds and start listening, where it once exited with
// `unknown env " dense"`.
func TestWarmListIsTrimmed(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-warm", "sparse, dense,")
	cmd.Env = append(os.Environ(), "MAVFI_SERVER_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	timeout := time.After(60 * time.Second)
	var seen []string
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("the service exited before listening; stderr: %q", seen)
			}
			if strings.Contains(line, "listening on") {
				return
			}
			seen = append(seen, line)
		case <-timeout:
			t.Fatalf("the service did not start listening within 60 s; stderr: %q", seen)
		}
	}
}
