// Command mavfi-server runs the mavfi campaign machinery as a network
// service, in one of three modes:
//
// The default mode is the campaign service of docs/ARCHITECTURE.md: a
// long-running HTTP server that accepts campaign jobs, executes them on the
// campaign worker pool behind a bounded FIFO queue, streams per-mission
// results over SSE, and serves finished cells in the exact CSV schema
// `mavfi matrix` emits.
//
//	mavfi-server -addr :8080 -workers 4 -record-dir runs/ -warm sparse,dense
//
// With -record-dir, jobs submitted with "record": true persist their mission
// recordings there and survive restarts: on startup the server rebuilds
// finished jobs from the recordings without re-simulating anything. On
// SIGTERM the server drains gracefully: the running jobs (at most two)
// finish, queued jobs are marked interrupted, and the process exits 0.
//
// -worker turns the process into a dispatch worker shard: it executes
// single-cell work units POSTed to /exec by a dispatcher and answers
// heartbeat probes on /healthz.
//
//	mavfi-server -worker -addr :9001 -register http://dispatcher:8080
//
// -dispatch turns the process into a campaign dispatcher: it fans a whole
// campaign matrix out to worker shards (with leases, retries, and local
// fallback) and writes final CSVs byte-identical to a single-process
// `mavfi matrix` run. It takes the matrix flags `mavfi matrix` takes, and
// refuses a spec `mavfi matrix` refuses, with the same text, before any cell
// flies. Every process builds the golden maps it flies itself (-map-seed
// memo), so nothing but work units and results crosses the wire.
//
//	mavfi-server -dispatch -shards w1:9001,w2:9001 -worlds sparse \
//	    -families sensor,wind -runs 16 -csv-dir out/ -state-dir state/
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/dispatch"
	"mavfi/internal/server"
)

func main() {
	var (
		workerMode   = flag.Bool("worker", false, "run as a dispatch worker shard instead of the campaign service")
		dispatchMode = flag.Bool("dispatch", false, "run as a campaign dispatcher instead of the campaign service")

		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "campaign worker pool size; the service's two running jobs share this many mission slots (0 = GOMAXPROCS-derived default)")

		// Campaign-service flags.
		queue       = flag.Int("queue", 16, "job queue capacity (submissions beyond it get 429)")
		recordDir   = flag.String("record-dir", "", "directory for recorded jobs (enables restart recovery)")
		deadline    = flag.Duration("deadline", 0, "per-mission wall-clock budget (0 = none; breaks byte-identity when it fires)")
		warm        = flag.String("warm", "", "comma-separated worlds to build at startup (e.g. sparse,dense)")
		drainBudget = flag.Duration("drain-timeout", 5*time.Minute, "how long a SIGTERM drain waits for the running jobs")

		// Worker-mode flags.
		register  = flag.String("register", "", "(worker) dispatcher base URL to register with at startup")
		advertise = flag.String("advertise", "", "(worker) address the dispatcher reaches this worker at when it registers (default: the bound address, with unspecified hosts rewritten to 127.0.0.1)")

		// Dispatch-mode flags, beside the matrix flags `mavfi matrix` shares.
		shards   = flag.String("shards", "", "(dispatch) comma-separated worker addresses")
		stateDir = flag.String("state-dir", "", "(dispatch) campaign state directory (enables crash-safe resume)")
		csvDir   = flag.String("csv-dir", "", "(dispatch) write per-cell and summary CSVs under DIR")
		lease    = flag.Duration("lease", 2*time.Minute, "(dispatch) per-cell lease TTL")
		noLocal  = flag.Bool("no-local", false, "(dispatch) never fall back to local execution; wait for healthy shards instead")
		axes     = matrix.AxisFlags(flag.CommandLine)
	)
	flag.Parse()

	switch {
	case *workerMode && *dispatchMode:
		fmt.Fprintln(os.Stderr, "mavfi-server: -worker and -dispatch are mutually exclusive")
		os.Exit(2)
	case *workerMode:
		runWorker(*addr, *advertise, *register, *workers)
	case *dispatchMode:
		spec, err := axes()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runDispatch(*addr, *csvDir, spec, dispatch.Config{
			Shards:       matrix.SplitList(*shards),
			LeaseTTL:     *lease,
			DisableLocal: *noLocal,
			StateDir:     *stateDir,
			Workers:      *workers,
			Logf:         log.Printf,
			OnCellDone: func(done, total int) {
				log.Printf("mavfi-server dispatch: cells %d/%d", done, total)
			},
		})
	default:
		runService(*addr, *queue, *workers, *recordDir, *deadline, *warm, *drainBudget)
	}
}

// hardenedServer wraps a handler in an http.Server with the slow-client
// protections every mode wants: a header-read deadline so a stalled client
// cannot pin an accept slot, and an idle timeout to reap dead keep-alive
// connections. No Read/WriteTimeout — SSE streams and long /exec units are
// legitimately open for minutes, and both have their own liveness story
// (keepalive frames, lease deadlines).
func hardenedServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// advertiseAddr resolves the address a worker registers with its
// dispatcher: the -advertise override, or the actual bound address with an
// unspecified host ("" or "::") rewritten to loopback — a dialable default
// for single-machine and test topologies.
func advertiseAddr(override string, bound net.Addr) string {
	if override != "" {
		return override
	}
	host, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return bound.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// runService is the default campaign-service mode.
func runService(addr string, queue, workers int, recordDir string, deadline time.Duration, warm string, drainBudget time.Duration) {
	srv, err := server.New(server.Config{
		Queue:      queue,
		Workers:    workers,
		RecordDir:  recordDir,
		Deadline:   deadline,
		WarmWorlds: matrix.SplitList(warm),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()

	hs := hardenedServer(addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("mavfi-server listening on %s", addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case sig := <-sigc:
		log.Printf("mavfi-server: %v, draining", sig)
		dctx, cancel := context.WithTimeout(context.Background(), drainBudget)
		if err := srv.Drain(dctx); err != nil {
			log.Printf("mavfi-server: drain: %v", err)
		}
		cancel()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		log.Printf("mavfi-server: drained, exiting")
	}
}

// runWorker is the dispatch worker-shard mode: serve /exec and /healthz
// until told to stop, optionally registering with a dispatcher first.
func runWorker(addr, advertise, register string, workers int) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	self := advertiseAddr(advertise, ln.Addr())
	w := dispatch.NewWorker(dispatch.WorkerConfig{Workers: workers})
	hs := hardenedServer(addr, w.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("mavfi-server worker listening on %s (advertised as %s)", ln.Addr(), self)

	if register != "" {
		go registerWithDispatcher(register, self)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case sig := <-sigc:
		// Finish the in-flight unit if it is quick; the dispatcher's lease
		// machinery makes an abandoned unit harmless either way.
		log.Printf("mavfi-server worker: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}
}

// registerWithDispatcher announces this worker's address to the dispatcher,
// retrying briefly: at startup the dispatcher may not be up yet, and a
// failure is survivable anyway (the operator can list the worker in
// -shards).
func registerWithDispatcher(base, self string) {
	body, _ := json.Marshal(map[string]string{"addr": self})
	url := strings.TrimSuffix(base, "/") + "/workers"
	// Not the default client: a dispatcher that accepts the connection but
	// never answers must cost one attempt, not hang the retry loop forever.
	client := &http.Client{Timeout: 5 * time.Second}
	for attempt := 1; attempt <= 10; attempt++ {
		resp, err := client.Post(url, "application/json", strings.NewReader(string(body)))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode < 300 {
				log.Printf("mavfi-server worker: registered with %s", base)
				return
			}
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		log.Printf("mavfi-server worker: registering with %s (attempt %d): %v", base, attempt, err)
		time.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
	}
	log.Printf("mavfi-server worker: giving up on registration; list this worker in -shards instead")
}

// runDispatch is the campaign-dispatcher mode: shard the matrix, reassemble
// the result, write the CSVs, exit 0.
func runDispatch(addr, csvDir string, spec matrix.Spec, cfg dispatch.Config) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d := dispatch.New(cfg)
	hs := hardenedServer(addr, d.Handler())
	go hs.Serve(ln)
	defer hs.Close()
	log.Printf("mavfi-server dispatch listening on %s", ln.Addr())

	// SIGTERM/SIGINT cancel the campaign; with -state-dir, completed cells
	// are already persisted and a re-run resumes where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := d.Run(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := d.Stat()
	log.Printf("mavfi-server dispatch: campaign %s complete (%d cells, %d retries, %d expired leases, %d stale drops, %d local runs)",
		st.Campaign, st.Done, st.Retries, st.Expired, st.StaleDrops, st.LocalRuns)
	if csvDir != "" {
		if err := res.WriteCSV(csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "writing CSV:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d cell CSVs and summary.csv under %s\n", len(res.Cells), csvDir)
		return
	}
	fmt.Print(res.Table())
}
