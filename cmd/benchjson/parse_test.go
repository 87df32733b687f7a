package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: dmafault
cpu: Example CPU @ 2.40GHz
BenchmarkMapUnmapStrict-8   	  504223	      2304 ns/op	     368 B/op	       9 allocs/op
BenchmarkIOTLBTranslate-8   	12159690	        98.61 ns/op	       0 B/op	       0 allocs/op
--- BENCH: BenchmarkSomething-8
    bench_test.go:10: a log line
PASS
ok  	dmafault	12.345s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "dmafault" {
		t.Fatalf("env: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 || len(doc.Raw) != 2 {
		t.Fatalf("parsed %d benchmarks, %d raw lines, want 2 and 2", len(doc.Benchmarks), len(doc.Raw))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkMapUnmapStrict-8" || b.Iterations != 504223 {
		t.Fatalf("first bench: %+v", b)
	}
	if b.Metrics["ns/op"] != 2304 || b.Metrics["B/op"] != 368 || b.Metrics["allocs/op"] != 9 {
		t.Fatalf("metrics: %+v", b.Metrics)
	}
	if doc.Benchmarks[1].Metrics["ns/op"] != 98.61 {
		t.Fatalf("float metric: %+v", doc.Benchmarks[1].Metrics)
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	doc, err := parse(strings.NewReader("BenchmarkOddFieldCount-8 100 5 ns/op extra\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("malformed line parsed: %+v", doc.Benchmarks)
	}
}

func TestParseMultiPackage(t *testing.T) {
	doc, err := parse(strings.NewReader(sample + "pkg: dmafault/internal/kexec\n" +
		"BenchmarkExtractBuildOffsets-8   	     126	  10493374 ns/op	 8336945 B/op	       4 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Pkg != "dmafault" {
		t.Errorf("Pkg = %q, want the first package", doc.Pkg)
	}
	if len(doc.Benchmarks) != 3 || doc.Benchmarks[2].Name != "BenchmarkExtractBuildOffsets-8" {
		t.Fatalf("benchmarks: %+v", doc.Benchmarks)
	}
}
