// Command bench is the end-to-end benchmark of the MAVFI reproduction: it
// drives the surfaces a user runs — matrix.RunOn in process, the campaign
// service over HTTP, and the sharded dispatcher — through their public APIs,
// checks their outputs, and prints every metric by name with its unit. A
// -trace pass adds per-layer attribution timed from outside the program.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash bench/run.sh --workload sweep-exact --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh                        # every workload, untraced
//	bash bench/run.sh --trace 1              # every workload, untraced then traced
//
// Each workload runs in a child process under a wall-clock cap, so a mission
// that never ends fails the run instead of stalling it. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings shared by supervisor and child.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	cap      time.Duration
	out      string
}

func main() {
	var o options
	var trace int
	var child bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, each in its own child process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 18, "how long the timed phase of one run lasts; 0 runs one round")
	flag.IntVar(&trace, "trace", 0, "1 adds the per-layer attribution pass and reports the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "tiny inputs (smoke tests)")
	flag.DurationVar(&o.cap, "cap", 0, "wall-clock cap per workload run (default 3×seconds + 45s)")
	flag.StringVar(&o.out, "out", ".bench_build/trace", "directory for the -trace span files")
	flag.BoolVar(&child, "child", false, "run the workload in this process (set by the supervisor)")
	flag.Parse()
	o.trace = trace == 1
	if o.cap <= 0 {
		o.cap = time.Duration(3*o.seconds+45) * time.Second
	}
	if o.workload != "" && lookup(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if child {
		if o.workload == "" {
			fmt.Fprintln(os.Stderr, "bench: -child needs -workload")
			os.Exit(2)
		}
		runChild(o)
		return
	}
	os.Exit(supervise(o))
}

// envHeader describes the machine and build, so a result recorded on a
// 1-CPU box cannot pass for a scaling curve.
func envHeader() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	return fmt.Sprintf("env gomaxprocs=%d nproc=%d go=%s revision=%s%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), rev, modified)
}

// supervise runs the requested workloads as child processes and prints their
// reports; it returns the process exit code.
func supervise(o options) int {
	fmt.Println(envHeader())
	if o.workload != "" {
		rep := runIsolated(o)
		rep.print(os.Stdout)
		fmt.Println(string(rep.result()))
		if !rep.Correct || rep.Failed > 0 {
			return 1
		}
		return 0
	}

	// Every workload, untraced; with -trace 1 a traced pass follows, and the
	// two missions_per_s give the tracing overhead.
	all := newReport("all", false)
	untraced := map[string]float64{}
	for _, pass := range []bool{false, true} {
		if pass && !o.trace {
			break
		}
		for _, name := range workloadNames() {
			wo := o
			wo.workload, wo.trace = name, pass
			rep := runIsolated(wo)
			if pass {
				if base := untraced[name]; base > 0 {
					rep.layer("trace.overhead_frac", "frac", 1-rep.Metrics["missions_per_s"].Value/base)
				}
			} else {
				untraced[name] = rep.Metrics["missions_per_s"].Value
			}
			rep.print(os.Stdout)
			all.Correct = all.Correct && rep.Correct
			all.Attempted += rep.Attempted
			all.Failed += rep.Failed
			src := rep.Metrics
			if pass {
				src = rep.Layers
			}
			for k, v := range src {
				all.Metrics[name+"/"+k] = v
			}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{all.Correct && all.Failed == 0, all.Attempted, all.Failed, all.Metrics})
	fmt.Println(string(b))
	if !all.Correct || all.Failed > 0 {
		return 1
	}
	return 0
}

// reportPrefix marks the child's report line on its stdout.
const reportPrefix = "report "

// runIsolated re-executes this binary as a child running one workload under
// the wall-clock cap. A child that outlives the cap is killed and the run is
// reported failed; peak_rss_mb comes from the child's rusage.
func runIsolated(o options) *report {
	self, err := os.Executable()
	if err != nil {
		rep := newReport(o.workload, o.trace)
		rep.Attempted, rep.Failed = 1, 1
		rep.fail("locating own executable: %v", err)
		return rep
	}
	args := []string{"-child",
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
		"-cap", o.cap.String(),
		"-out", o.out,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		rep := newReport(o.workload, o.trace)
		rep.Attempted, rep.Failed = 1, 1
		rep.fail("starting child: %v", err)
		return rep
	}
	killed := make(chan struct{})
	timer := time.AfterFunc(o.cap, func() {
		close(killed)
		cmd.Process.Kill()
	})
	var rep *report
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if js, ok := strings.CutPrefix(line, reportPrefix); ok {
			var r report
			if json.Unmarshal([]byte(js), &r) == nil {
				rep = &r
			}
			continue
		}
		fmt.Println(line)
	}
	waitErr := cmd.Wait()
	timer.Stop()
	select {
	case <-killed:
		rep = newReport(o.workload, o.trace)
		rep.Attempted, rep.Failed = 1, 1
		rep.fail("child killed at the %v wall cap without a report", o.cap)
	default:
	}
	if rep == nil {
		rep = newReport(o.workload, o.trace)
		rep.Attempted, rep.Failed = 1, 1
		rep.fail("child exited without a report: %v", waitErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && !o.trace {
		rep.metric("peak_rss_mb", "MB", float64(ru.Maxrss)*1024/1e6)
	}
	return rep
}

// childEnv marks a child process, so the test binary can act as the
// benchmark's child when the watchdog test re-executes it.
const childEnv = "MAVFI_BENCH_CHILD"

// runChild runs one workload in this process and writes its report. The
// child stops itself shortly before the supervisor's cap (the larger of 10%
// and 2 s before it), naming the work still unfinished; the supervisor's
// kill is the backstop.
func runChild(o options) {
	w := lookup(o.workload)
	r := newRun(o)
	done := make(chan *report, 1)
	go func() { done <- w.run(r) }()
	var rep *report
	select {
	case rep = <-done:
	case <-time.After(o.cap - max(o.cap/10, 2*time.Second)):
		rep = newReport(o.workload, o.trace)
		rep.Attempted, rep.Failed = r.prog.hung()
		rep.fail("wall cap %v expired", o.cap)
		for _, name := range r.prog.unfinished() {
			rep.info("unfinished %s", name)
		}
	}
	b, _ := json.Marshal(rep)
	fmt.Printf("%s%s\n", reportPrefix, b)
	os.Stdout.Sync()
	os.Exit(0)
}
