package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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

// Runs that name their commits print both ids on one line above the tables.
func TestRendersCommitHeader(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, "../../BENCHMARK.json", "testdata/commits.jsonl"); err != nil {
		t.Fatal(err)
	}
	const want = "parent `aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa` · head `bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb`\n\n## nodsm8:"
	if out := got.String(); !strings.HasPrefix(out, want) {
		t.Errorf("commit header missing or wrong; got:\n%s", out)
	}
}

// The checked-in trajectory is what the checked-in pairs files render to,
// byte for byte. It needs the git history that holds the records' commits,
// to tell whether bench/ changed between them, and skips without it.
func TestTrajectoryMatchesCheckedIn(t *testing.T) {
	paths, err := filepath.Glob("../BENCH_*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		rs, err := load(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rs.commit {
			if c != "" && exec.Command("git", "-C", "../..", "cat-file", "-e", c+"^{commit}").Run() != nil {
				t.Skipf("commit %s of %s is not in this checkout's history", c, p)
			}
		}
	}
	want, err := os.ReadFile("../TRAJECTORY.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := trajectory(&got, "../../BENCHMARK.json", "../..", paths); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("results/TRAJECTORY.md is stale: regenerate it with go run ./results/summarize -trajectory results/BENCH_*.jsonl > results/TRAJECTORY.md")
	}
}

// A head that creeps 2 % a PR passes no step's 3 % bound, but its change
// since the anchor does at the second step: that row alone says DRIFT. A
// side study beside a PR's pairs file is no step.
func TestTrajectoryFlagsDrift(t *testing.T) {
	paths, err := filepath.Glob("testdata/trajectory/*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := trajectory(&got, "../../BENCHMARK.json", ".", paths); err != nil {
		t.Fatal(err)
	}
	const want = `
### host_alloc_MB (bound 3%)

| PR | head median [q1, q3] | step | since PR 50 | note |
|---|---|---|---|---|
| 50 | 100 [100, 100] | +0.00% | +0.00% |  |
| 51 | 102 [102, 102] | +2.00% | +2.00% |  |
| 52 | 104.04 [104.04, 104.04] | +2.00% | +4.04% | DRIFT |
`
	if out := got.String(); !strings.HasSuffix(out, "## serve-mix\n") || !strings.Contains(out, "## nodsm8\n"+want+"\n## serve-mix") {
		t.Errorf("trajectory rows wrong; got:\n%s", out)
	}
}
