package main

import (
	"fmt"
	"io"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
)

// anchorPR is the PR the cumulative changes start from: the last
// re-anchor's. A step is one file's head median against its parent's, and
// each gated bound holds per step, so a drift that stays inside every
// step's bound shows only in the cumulative change.
const anchorPR = 50

// benchFile matches the one pairs file a PR checks in; the side studies
// beside it (BENCH_<n>_<what>.jsonl) are not steps of the trajectory.
var benchFile = regexp.MustCompile(`^BENCH_([0-9]+)\.jsonl$`)

// step is one PR's pairs file and whether its parent and head commits
// differ under bench/ or BENCHMARK.json ("changed", "same", or "unknown"
// when git cannot tell; "" when the records name no commits).
type step struct {
	pr    int
	runs  runs
	bench string
}

// benchChange asks git, in the repository at root, whether the benchmark's
// definition differs between two commits.
func benchChange(root string, commit map[string]string) string {
	if commit["parent"] == "" || commit["head"] == "" {
		return ""
	}
	err := exec.Command("git", "-C", root, "diff", "--quiet", commit["parent"], commit["head"], "--", "bench", "BENCHMARK.json").Run()
	if err == nil {
		return "same"
	}
	if e, ok := err.(*exec.ExitError); ok && e.ExitCode() == 1 {
		return "changed"
	}
	return "unknown"
}

// trajectory prints, per workload of BENCHMARK.json and per metric, one
// row per PR: the head median [q1, q3] over the file's pairs, the step
// (head median against parent median) and, from anchorPR on, the head
// median's cumulative change since the anchor's. A gated metric whose
// cumulative change is worse than its bound while no step since the anchor
// was is marked DRIFT. The ungated host timings follow with medians only.
func trajectory(w io.Writer, benchmark, root string, paths []string) error {
	workloads, metrics, err := benchDefs(benchmark)
	if err != nil {
		return err
	}
	var steps []step
	for _, p := range paths {
		m := benchFile.FindStringSubmatch(filepath.Base(p))
		if m == nil {
			continue
		}
		pr, _ := strconv.Atoi(m[1])
		rs, err := load(p)
		if err != nil {
			return err
		}
		steps = append(steps, step{pr: pr, runs: rs, bench: benchChange(root, rs.commit)})
	}
	slices.SortFunc(steps, func(a, b step) int { return a.pr - b.pr })
	fmt.Fprintf(w, `# Performance trajectory

Generated from the checked-in pairs files; do not edit:

	go run ./results/summarize -trajectory results/BENCH_*.jsonl > results/TRAJECTORY.md

For each workload and end-to-end metric, one row per PR: the head's median
[q1, q3] over that PR's pairs, the step (the head's median against the
parent's, same session), and the change of the head's median since PR %d's.
Medians from different sessions compare only where a metric repeats across
hosts: host_alloc_MB, wire_MB and wire_kmsgs do, host seconds do not.
"bench/ changed" marks a PR whose parent and head commits differ under
bench/ or BENCHMARK.json, so its step is partly a definition change; files
before BENCH_51 name no commits. DRIFT marks a gated metric whose change
since PR %d is worse than its bound although no step since then was.
`, anchorPR, anchorPR)
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n## %s\n", wl)
		for _, m := range metrics {
			trajectoryTable(w, wl, m, steps)
		}
		for _, name := range ungated {
			trajectoryTable(w, wl, metricDef{Name: name}, steps)
		}
	}
	return nil
}

// trajectoryTable prints one metric's rows; a metric with no Better is an
// ungated host timing from the runs' records.
func trajectoryTable(w io.Writer, wl string, m metricDef, steps []step) {
	header := false
	anchor, worstStep := math.NaN(), math.Inf(-1)
	for _, s := range steps {
		side, pairs := pairUp(s.runs.byWorkload[wl])
		pv, hv := gated(side, pairs, m.Name)
		if m.Better == "" {
			v := unbounded(side, pairs, m.Name)
			pv, hv = v[0], v[1]
		}
		if len(pv) == 0 || len(hv) == 0 {
			continue
		}
		_, pm, _ := quartiles(pv)
		hq1, hm, hq3 := quartiles(hv)
		if pm == 0 || hm == 0 {
			continue // a metric the file's runs do not carry
		}
		if !header {
			title := fmt.Sprintf("bound %g%%", 100*m.Bound)
			if m.Better == "" {
				title = "not gated"
			}
			fmt.Fprintf(w, "\n### %s (%s)\n\n", m.Name, title)
			fmt.Fprintf(w, "| PR | head median [q1, q3] | step | since PR %d | note |\n|---|---|---|---|---|\n", anchorPR)
			header = true
		}
		change := (hm - pm) / pm
		since, note := "", ""
		if s.pr == anchorPR {
			anchor = hm
		}
		if s.pr > anchorPR && m.Better != "" {
			worstStep = max(worstStep, worse(change, m))
		}
		if s.pr >= anchorPR && !math.IsNaN(anchor) {
			cum := (hm - anchor) / anchor
			since = fmt.Sprintf("%+.2f%%", 100*cum)
			if m.Better != "" && worse(cum, m) > m.Bound && worstStep <= m.Bound {
				note = "DRIFT"
			}
		}
		if s.bench == "changed" || s.bench == "unknown" {
			note = join(note, "bench/ "+s.bench)
		}
		fmt.Fprintf(w, "| %d | %.6g [%.6g, %.6g] | %+.2f%% | %s | %s |\n", s.pr, hm, hq1, hq3, 100*change, since, note)
	}
}

func join(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}
