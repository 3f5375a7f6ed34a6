package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric the benchmark reports and its unit. The two
// lists below mirror BENCHMARK.json's end_to_end and per_layer sections
// (bench_test.go keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of each surface sees, measured with
// tracing off. Every workload reports every one of them. sim_s_per_host_s
// and job_ms_p90 print as metric lines but stay out of the final JSON
// object (README.md says why).
var endToEnd = []metricDef{
	{"missions_per_s", "missions/s"},
	{"job_ms_p50", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_mission", "MB"},
}

// perLayer are the layer metrics of the -trace pass that every workload
// reports. Layer metrics that exist on one workload only (detect, server,
// dispatch, and the set-up steps a workload skips) print as "layer" lines
// and stay out of the final JSON object.
var perLayer = []metricDef{
	{"matrix.world_ms", "ms"},
	{"campaign.parallel_eff", "frac"},
	{"pipeline.mission_ms_p50", "ms"},
	{"pipeline.mission_ms_p90", "ms"},
	{"pipeline.host_us_per_tick", "us"},
	{"pipeline.ticks_per_mission", "count"},
	{"pipeline.plans_per_mission", "count"},
	{"pipeline.reflight_equal_frac", "frac"},
	{"pipeline.unattributed_frac", "frac"},
	{"sim.capture_us", "us"},
	{"sim.captures_per_mission", "count"},
	{"sim.step_us", "us"},
	{"pointcloud.generate_us", "us"},
	{"octomap.insert_us", "us"},
	{"octomap.inserts_per_mission", "count"},
	{"octomap.rays_per_insert", "count"},
	{"perception.check_us", "us"},
	{"perception.checks_per_mission", "count"},
	{"planning.plan_ms", "ms"},
	{"planning.smooth_ms", "ms"},
	{"planning.plan_fail_frac", "frac"},
	{"record.append_ns", "ns"},
	{"record.close_ms", "ms"},
	{"record.bytes_per_mission", "B"},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produces. The child process writes it as
// its last stdout line; the supervisor adds peak_rss_mb and prints it.
type report struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Layers    map[string]value `json:"layers"`
	Info      []string         `json:"info"`
}

func newReport(workload string, trace bool) *report {
	return &report{
		Workload: workload,
		Trace:    trace,
		Correct:  true,
		Metrics:  map[string]value{},
		Layers:   map[string]value{},
	}
}

func (r *report) metric(name, unit string, v float64) { r.set(r.Metrics, name, unit, v) }

func (r *report) layer(name, unit string, v float64) { r.set(r.Layers, name, unit, v) }

// set records a measured value; a statistic over no samples (NaN) is noted
// instead, since JSON has no NaN.
func (r *report) set(m map[string]value, name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.info("%s: no samples", name)
		return
	}
	m[name] = value{v, unit}
}

func (r *report) info(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and records why.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.info("CHECK FAILED: "+format, args...)
}

// print writes the human-readable lines: every metric by name with its unit.
func (r *report) print(w io.Writer) {
	for _, s := range r.Info {
		fmt.Fprintf(w, "info %s %s\n", r.Workload, s)
	}
	kind := "metric"
	if r.Trace {
		// End-to-end numbers of a traced run include tracing overhead.
		kind = "traced"
	}
	for _, name := range sortedKeys(r.Metrics) {
		v := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s %s\n", kind, r.Workload, name, fmtVal(v.Value), v.Unit)
	}
	for _, name := range sortedKeys(r.Layers) {
		v := r.Layers[name]
		fmt.Fprintf(w, "layer %s %s %s %s\n", r.Workload, name, fmtVal(v.Value), v.Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "metric %s failed_frac %s frac (%d of %d operations)\n", r.Workload, fmtVal(frac), r.Failed, r.Attempted)
}

// result is the final JSON line the benchmark contract asks for: the
// end-to-end metrics without -trace, the shared per-layer metrics with it.
func (r *report) result() []byte {
	defs, src := endToEnd, r.Metrics
	if r.Trace {
		defs, src = perLayer, r.Layers
	}
	metrics := map[string]value{}
	for _, d := range defs {
		if v, ok := src[d.name]; ok {
			metrics[d.name] = v
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct && r.Failed == 0, attempted, r.Failed, metrics})
	return b
}

func sortedKeys(m map[string]value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtVal(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
