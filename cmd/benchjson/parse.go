package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Document is the JSON artifact: environment lines, one record per
// benchmark result line, and the raw lines for benchstat replay.
type Document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Raw holds the benchmark result lines verbatim — feed them to
	// benchstat to compare two artifacts.
	Raw []string `json:"raw"`
}

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name keeps the -cpu suffix (e.g. "BenchmarkMapUnmapStrict-8"):
	// results at different GOMAXPROCS are different benchmarks.
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit to value: "ns/op", "B/op", "allocs/op", and any
	// custom testing.B metrics.
	Metrics map[string]float64 `json:"metrics"`
}

// parse scans `go test -bench` output. Unknown lines (PASS, ok, test logs)
// are ignored; malformed Benchmark lines are an error rather than a silent
// gap, so a truncated run cannot masquerade as a comparison baseline.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{Benchmarks: []Benchmark{}, Raw: []string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: ") && doc.Pkg == "":
			// A multi-package run prints one pkg line per package; the
			// artifact names the first, the module's root.
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue // a log line that happens to start with "Benchmark"
			}
			doc.Benchmarks = append(doc.Benchmarks, b)
			doc.Raw = append(doc.Raw, line)
		}
	}
	return doc, sc.Err()
}

// parseBenchLine parses "BenchmarkName-8  100  123 ns/op  45 B/op ...".
// Fields after the iteration count come in (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad metric value in %q: %w", line, err)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true, nil
}
