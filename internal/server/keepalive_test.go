package server

import (
	"bufio"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestStreamKeepalive pins the SSE idle-stream contract: a stream with no
// mission traffic carries periodic comment frames (invisible to EventSource
// clients, but enough byte flow to keep proxies and idle timeouts from
// reaping the connection), and still delivers the terminal done event.
func TestStreamKeepalive(t *testing.T) {
	old := sseKeepAliveEvery
	sseKeepAliveEvery = 20 * time.Millisecond
	defer func() { sseKeepAliveEvery = old }()

	s, ts := newTestServer(t, Config{})
	// Plant a queued job by hand so the stream stays idle forever: no
	// executor ever picks it up, so the only traffic is keepalives.
	spec, run, err := testSpec().Spec()
	if err != nil {
		t.Fatal(err)
	}
	j := newJob("job-9999", spec, run, "")
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()

	resp, err := http.Get(ts.URL + "/jobs/job-9999/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}

	br := bufio.NewReader(resp.Body)
	keepalives := 0
	for keepalives < 2 {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d keepalives: %v", keepalives, err)
		}
		switch strings.TrimRight(line, "\n") {
		case ": keepalive":
			keepalives++
		case "":
		default:
			t.Fatalf("idle stream carried unexpected line %q", line)
		}
	}

	// Finishing the job must still close the stream out with a done event.
	j.finish(JobCanceled, "test over", nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended without a done event: %v", err)
		}
		if strings.TrimRight(line, "\n") == "event: done" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no done event after job finish")
		}
	}
}
