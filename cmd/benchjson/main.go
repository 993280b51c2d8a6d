// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so benchmark baselines can be
// committed (BENCH_baseline.json, written by `make bench-json`) and
// diffed across changes without scraping text.
//
// Usage:
//
//	go test -bench . -run XXX ./... | benchjson -o BENCH_baseline.json
//	go test -bench Table1 -benchtime 3x -run XXX . | benchjson
//
// The parser understands the standard testing output: `goos:`,
// `goarch:`, `cpu:` and `pkg:` headers, and benchmark result lines of
// the form
//
//	BenchmarkName-8   100   12345 ns/op   678.0 encryptions/op
//
// including custom ReportMetric units. Every metric is kept as a
// name→value map per benchmark, with the GOMAXPROCS suffix split off.
// The header also records the host's core count and GOMAXPROCS (read
// by benchjson itself, which runs on the host it is piped from), so
// the numbers can be interpreted.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Pkg     string             `json:"pkg,omitempty"`
	Procs   int                `json:"procs,omitempty"`
	Runs    int                `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the emitted JSON document.
type Doc struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "-", "output path (\"-\" for stdout)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchjson: reads `go test -bench` output on stdin; unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks → %s\n", len(doc.Benchmarks), *out)
}

// parse scans `go test -bench` text and collects headers and result
// lines. Unrecognized lines (PASS, ok, test logs) are skipped.
func parse(r io.Reader) (Doc, error) {
	doc := Doc{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseResult(line)
			if !ok {
				continue
			}
			b.Pkg = pkg
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	return doc, sc.Err()
}

// parseResult parses one `BenchmarkName-P  N  v1 u1  v2 u2 ...` line.
func parseResult(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Metrics: map[string]float64{}}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	runs, err := strconv.Atoi(fields[1])
	if err != nil {
		return Benchmark{}, false
	}
	b.Runs = runs
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON cannot encode a non-finite value (go test prints a
			// non-finite ReportMetric as NaN or +Inf).
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
