package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// A checked-in record renders to its checked-in table byte for byte: runs
// without records print no ungated table.
func TestRendersCheckedInTable(t *testing.T) {
	want, err := os.ReadFile("../BENCH_43.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, "../../BENCHMARK.json", "../BENCH_43.jsonl"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rendering BENCH_43.jsonl differs from BENCH_43.md:\n%s", got.String())
	}
}

// Runs that carry records add each side's ungated host timings after the
// gated table: median [q1, q3] over the pairs, no verdict.
func TestRendersUngatedRecordTimings(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, "../../BENCHMARK.json", "testdata/records.jsonl"); err != nil {
		t.Fatal(err)
	}
	const want = `
Not gated (host timings from the runs' records: no bound, no verdict):

| metric | parent | head |
|---|---|---|
| host_wall_s | 1.2 [0.9, 1.5] | 1.1 [0.8, 1.4] |
| host_wall_raw_s | 1.4 [1.1, 1.7] | 1.3 [1, 1.6] |
| setup_raw_s | 0.6 [0.45, 0.75] | 0.5 [0.35, 0.65] |
`
	out := got.String()
	if !strings.HasSuffix(out, want) {
		t.Errorf("ungated table missing or wrong; got:\n%s", out)
	}
	if !strings.Contains(out, "| host_alloc_MB | 100 [100, 100] | 99 [99, 99] | -1.00% | head better in 2/2 (ties 0) | bound 3% | within |") {
		t.Errorf("gated table changed; got:\n%s", out)
	}
}
