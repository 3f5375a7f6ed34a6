package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark's child process:
// runIsolated re-executes os.Executable with childEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json these tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric lists in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	check := func(section string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", section, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", section, i, got[i], want[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// TestEveryWorkloadQuick runs every workload at a tiny scale, untraced and
// traced, and requires each BENCHMARK.json metric to print with its unit
// and no operation to fail.
func TestEveryWorkloadQuick(t *testing.T) {
	bj := readBenchmarkJSON(t)
	out := t.TempDir()
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, quick: true, trace: traced, cap: 2 * time.Minute, out: out}
			rep := runIsolated(o)
			var buf bytes.Buffer
			rep.print(&buf)
			text := buf.String()
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, traced, rep.Correct, rep.Failed, rep.Attempted, text)
				continue
			}
			kind, defs := "metric", bj.EndToEnd
			if traced {
				kind, defs = "layer", bj.PerLayer
			}
			for _, m := range defs {
				prefix := kind + " " + w + " " + m.Name + " "
				found := false
				for _, line := range strings.Split(text, "\n") {
					if strings.HasPrefix(line, prefix) && strings.HasSuffix(line, " "+m.Unit) {
						found = true
					}
				}
				if !found {
					t.Errorf("%s trace=%v: no %q line with unit %s", w, traced, prefix, m.Unit)
				}
			}
			if !strings.Contains(text, "metric "+w+" failed_frac 0 ") {
				t.Errorf("%s trace=%v: failed_frac is not 0:\n%s", w, traced, text)
			}
			var res struct {
				Correct bool
				Metrics map[string]value
			}
			if err := json.Unmarshal(rep.result(), &res); err != nil || !res.Correct || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result line %s (%v)", w, traced, rep.result(), err)
			}
		}
	}
}

// TestWatchdogReportsPromptly runs a workload whose timed phase outlasts a
// tiny wall cap: the run must end near the cap and report failure, naming
// the unfinished work.
func TestWatchdogReportsPromptly(t *testing.T) {
	capD := 4 * time.Second
	o := options{workload: "sweep-exact", seed: 1, seconds: 60, quick: true, cap: capD, out: t.TempDir()}
	start := time.Now()
	rep := runIsolated(o)
	if el := time.Since(start); el > capD+2*time.Second {
		t.Errorf("capped run took %v, cap %v", el, capD)
	}
	if rep.Correct || rep.Failed < 1 {
		t.Errorf("capped run reported correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	named := false
	for _, s := range rep.Info {
		named = named || strings.HasPrefix(s, "unfinished round ")
	}
	if !named {
		t.Errorf("capped run names no unfinished mission: %v", rep.Info)
	}
	if !strings.Contains(string(rep.result()), `"correct":false`) {
		t.Errorf("result line %s does not report failure", rep.result())
	}
}
