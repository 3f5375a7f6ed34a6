// Command benchjson converts `go test -bench` output on stdin into a JSON
// map of benchmark name → metrics and writes it to -o (default stdout),
// echoing the raw stream to stderr so progress stays visible:
//
//	go test -bench=. -benchmem -run '^$' ./... | benchjson -o BENCH_PR2.json
//
// Standard metrics (ns/op, B/op, allocs/op) and custom b.ReportMetric units
// are both captured. The GOMAXPROCS suffix (-8) is stripped so files diff
// cleanly across machines, and kept as the benchmark's procs metric (1 when
// there is no suffix, the one case go test omits it); sub-benchmark paths
// are kept. Benchmark names are only unique per package, so keys are
// qualified with the package path from the `pkg:` header lines
// (module-root benchmarks stay bare).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	results, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// Stable key order so the JSON file diffs cleanly between runs.
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		enc, err := json.Marshal(results[n])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(&b, " %q: %s", n, enc)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if _, err := w.WriteString(b.String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output from r, echoing every line to echo,
// and returns the metrics of each benchmark by qualified name.
func parse(r io.Reader, echo io.Writer) (map[string]map[string]float64, error) {
	results := map[string]map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var pkg, rootPkg string
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			// The first pkg seen with no path separator is the module root;
			// its benchmarks keep unqualified names.
			if rootPkg == "" && !strings.Contains(pkg, "/") {
				rootPkg = pkg
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if pkg != "" && pkg != rootPkg {
			// Strip the module prefix for stable, readable keys.
			short := pkg
			if i := strings.Index(short, "/"); i >= 0 {
				short = short[i+1:]
			}
			name = short + "." + name
		}
		// Strip the GOMAXPROCS suffix from the leaf segment only, so
		// sub-benchmark names like workers=8 survive.
		procs := 1.0
		if sfx := procSuffix.FindString(name[strings.LastIndex(name, "/")+1:]); sfx != "" {
			procs, _ = strconv.ParseFloat(sfx[1:], 64)
			name = strings.TrimSuffix(name, sfx)
		}
		metrics := results[name]
		if metrics == nil {
			metrics = map[string]float64{}
			results[name] = metrics
		}
		metrics["procs"] = procs
		metrics["iterations"], _ = strconv.ParseFloat(m[2], 64)
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[fields[i+1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading input: %w", err)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return results, nil
}
