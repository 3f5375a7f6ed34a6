package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// benchOutput is canned `go test -bench -benchmem` output: a module-root
// package run at GOMAXPROCS 2, then a sub-package whose benchmarks carry a
// suffix of 4 or, as go test prints them at GOMAXPROCS 1, none.
const benchOutput = `goos: linux
goarch: amd64
pkg: mavfi
cpu: Intel(R) Xeon(R) CPU
BenchmarkMission-2   	      50	  21000000 ns/op	  321510 B/op	     511 allocs/op
PASS
ok  	mavfi	2.1s
pkg: mavfi/internal/pipeline
BenchmarkCampaignRunnerScaling/workers=8-4   	       6	 196840277 ns/op	       100.0 success%
BenchmarkCampaignRunnerScaling/workers=2     	       6	 169168368 ns/op	       100.0 success%
BenchmarkCampaignCell/memo-near2             	       6	  68400000 ns/op
PASS
ok  	mavfi/internal/pipeline	9.3s
`

func TestParseRecordsProcs(t *testing.T) {
	got, err := parse(strings.NewReader(benchOutput), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{
		"BenchmarkMission": {
			"procs": 2, "iterations": 50, "ns/op": 21000000, "B/op": 321510, "allocs/op": 511,
		},
		"internal/pipeline.BenchmarkCampaignRunnerScaling/workers=8": {
			"procs": 4, "iterations": 6, "ns/op": 196840277, "success%": 100,
		},
		"internal/pipeline.BenchmarkCampaignRunnerScaling/workers=2": {
			"procs": 1, "iterations": 6, "ns/op": 169168368, "success%": 100,
		},
		"internal/pipeline.BenchmarkCampaignCell/memo-near2": {
			"procs": 1, "iterations": 6, "ns/op": 68400000,
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parse:\n got %v\nwant %v", got, want)
	}
}

func TestParseRejectsInputWithoutBenchmarks(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok  \tmavfi\t0.1s\n"), io.Discard); err == nil {
		t.Fatal("no error for input without benchmark lines")
	}
}
