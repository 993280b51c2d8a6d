package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: grinch
cpu: AMD EPYC 7B13
BenchmarkAttackNilTracer-8   	     100	  12345678 ns/op	      4567 encryptions/op
BenchmarkTable1/flush_w1-8   	       3	 987654321 ns/op	    100000 encryptions/op	 128 B/op	       2 allocs/op
some test log line
PASS
ok  	grinch	1.234s
pkg: grinch/internal/experiments
BenchmarkTable1Campaign/serial-8 	       3	 111222333 ns/op
ok  	grinch/internal/experiments	0.5s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.CPU != "AMD EPYC 7B13" {
		t.Fatalf("headers: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkAttackNilTracer" || b.Procs != 8 || b.Runs != 100 || b.Pkg != "grinch" {
		t.Fatalf("first benchmark: %+v", b)
	}
	if b.Metrics["ns/op"] != 12345678 || b.Metrics["encryptions/op"] != 4567 {
		t.Fatalf("first metrics: %+v", b.Metrics)
	}
	sub := doc.Benchmarks[1]
	if sub.Name != "BenchmarkTable1/flush_w1" || len(sub.Metrics) != 4 {
		t.Fatalf("sub-benchmark: %+v", sub)
	}
	if doc.Benchmarks[2].Pkg != "grinch/internal/experiments" {
		t.Fatalf("pkg header did not switch: %+v", doc.Benchmarks[2])
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkNoFields",
		"Benchmark-8 abc 1 ns/op",
		"BenchmarkOdd-8 3 12 ns/op trailing",
		"BenchmarkBadValue-8 3 twelve ns/op",
		// go test prints a non-finite ReportMetric as NaN or +Inf; JSON
		// has no encoding for either.
		"BenchmarkX-2 10 NaN widgets/op",
		"BenchmarkX-2 10 +Inf widgets/op",
		"BenchmarkX-2 10 12 ns/op -Inf widgets/op",
	} {
		if _, ok := parseResult(line); ok {
			t.Errorf("parseResult accepted %q", line)
		}
	}
}

// TestParseRecordsHost pins the host fields of the header: the core
// count and GOMAXPROCS the numbers were measured under, emitted as
// num_cpu and gomaxprocs.
func TestParseRecordsHost(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.NumCPU != runtime.NumCPU() || doc.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("host fields num_cpu=%d gomaxprocs=%d, want %d and %d",
			doc.NumCPU, doc.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var header map[string]any
	if err := json.Unmarshal(data, &header); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"num_cpu", "gomaxprocs"} {
		if v, ok := header[key].(float64); !ok || v < 1 {
			t.Errorf("header %s = %v, want a positive count", key, header[key])
		}
	}
}

// FuzzParse: parse never panics on arbitrary `go test -bench` output,
// and every document it returns marshals, so benchjson always writes
// its file. The seed corpus in testdata/fuzz/FuzzParse holds real
// output and the non-finite and malformed result lines.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Fuzz(func(t *testing.T, text string) {
		doc, err := parse(strings.NewReader(text))
		if err != nil {
			return
		}
		if _, err := json.MarshalIndent(doc, "", "  "); err != nil {
			t.Fatalf("parsed document does not marshal: %v", err)
		}
	})
}
