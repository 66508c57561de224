// Command summarize turns the run records of results/pairs.sh into the
// per-workload tables of results/BENCH_<n>.md: for every end-to-end
// metric of BENCHMARK.json the median [lower quartile, upper quartile] of
// each side, the change of the medians, the pairs the head won, and the
// verdict against the metric's bound. Runs that carry the benchmark's full
// record add a second table of its host timings, which no bound gates:
// each side's median [q1, q3] of the runs' medians, with no verdict. Runs
// that name their commits put one "parent <sha> · head <sha>" line above
// the tables.
//
//	go run ./results/summarize results/BENCH_18.jsonl
//
// With -trajectory it reads every results/BENCH_<n>.jsonl named (other
// names are skipped) and prints results/TRAJECTORY.md: per workload and
// metric, each PR's head median [q1, q3], its step against its own parent,
// and the head median's cumulative change since PR anchorPR (see
// trajectory).
//
//	go run ./results/summarize -trajectory results/BENCH_*.jsonl > results/TRAJECTORY.md
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// ungated are the record's unbounded host timings the second table shows.
var ungated = []string{"host_wall_s", "host_wall_raw_s", "setup_raw_s"}

type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type record struct {
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Side     string `json:"side"`
	Commit   string `json:"commit"`
	Result   struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
	Record *struct {
		Unbounded map[string]struct {
			Median float64 `json:"median"`
		} `json:"unbounded"`
	} `json:"record"`
}

// quartiles is the exclusive method of Python's statistics.quantiles(v,
// n=4), which the acceptance check uses (cf. bench/stats.go).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		return s[j-1] + float64(i*(n+1)-4*j)/4*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

func main() {
	var err error
	switch args := os.Args[1:]; {
	case len(args) > 1 && args[0] == "-trajectory":
		err = trajectory(os.Stdout, "BENCHMARK.json", ".", args[1:])
	case len(args) == 1:
		err = run(os.Stdout, "BENCHMARK.json", args[0])
	default:
		fmt.Fprintln(os.Stderr, "usage: summarize <runs.jsonl> | summarize -trajectory <BENCH_n.jsonl>...")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "summarize:", err)
		os.Exit(1)
	}
}

// benchDefs reads BENCHMARK.json's workload names and end-to-end metrics.
func benchDefs(benchmark string) (workloads []string, metrics []metricDef, err error) {
	raw, err := os.ReadFile(benchmark)
	if err != nil {
		return nil, nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, wl := range bench.Workloads {
		workloads = append(workloads, wl.Name)
	}
	return workloads, bench.EndToEnd, nil
}

// runs is one pairs file: its records by workload, the workloads in the
// order they first appear, and each side's commit ("" when none is named).
type runs struct {
	order      []string
	byWorkload map[string][]record
	commit     map[string]string
}

func load(path string) (runs, error) {
	rs := runs{byWorkload: map[string][]record{}, commit: map[string]string{}}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return rs, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Side != "parent" && r.Side != "head" {
			return rs, fmt.Errorf("%s:%d: side %q is neither parent nor head", path, line, r.Side)
		}
		if rs.commit[r.Side] == "" {
			rs.commit[r.Side] = r.Commit
		}
		if _, seen := rs.byWorkload[r.Workload]; !seen {
			rs.order = append(rs.order, r.Workload)
		}
		rs.byWorkload[r.Workload] = append(rs.byWorkload[r.Workload], r)
	}
	return rs, sc.Err()
}

func run(w io.Writer, benchmark, path string) error {
	_, metrics, err := benchDefs(benchmark)
	if err != nil {
		return err
	}
	rs, err := load(path)
	if err != nil {
		return err
	}
	if rs.commit["parent"] != "" && rs.commit["head"] != "" {
		fmt.Fprintf(w, "parent `%s` · head `%s`\n", rs.commit["parent"], rs.commit["head"])
	}
	for _, name := range rs.order {
		table(w, name, rs.byWorkload[name], metrics)
	}
	return nil
}

// pairUp files a workload's records by side and pair, and returns the
// pairs both sides ran, ascending.
func pairUp(recs []record) (side map[string]map[int]record, pairs []int) {
	side = map[string]map[int]record{"parent": {}, "head": {}}
	for _, r := range recs {
		side[r.Side][r.Pair] = r
	}
	for p := range side["parent"] {
		if _, ok := side["head"][p]; ok {
			pairs = append(pairs, p)
		}
	}
	slices.Sort(pairs)
	return side, pairs
}

// gated returns each side's values of a gated metric over pairs.
func gated(side map[string]map[int]record, pairs []int, name string) (pv, hv []float64) {
	for _, p := range pairs {
		pv = append(pv, side["parent"][p].Result.Metrics[name].Value)
		hv = append(hv, side["head"][p].Result.Metrics[name].Value)
	}
	return pv, hv
}

// worse is how far a change of the median is on a metric's wrong side.
func worse(change float64, m metricDef) float64 {
	if m.Better == "higher" {
		return -change
	}
	return change
}

func table(w io.Writer, workload string, recs []record, metrics []metricDef) {
	side, pairs := pairUp(recs)
	clean := true
	for _, r := range recs {
		clean = clean && r.Result.Correct && r.Result.Failed == 0
	}
	fmt.Fprintf(w, "\n## %s: %d pairs, correct and failed=0 on all %d runs: %v\n\n", workload, len(pairs), len(recs), clean)
	fmt.Fprintln(w, "| metric | parent | head | median change | pairs | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, m := range metrics {
		if len(pairs) == 0 {
			continue
		}
		pv, hv := gated(side, pairs, m.Name)
		won, ties := 0, 0
		for i := range pv {
			switch a, b := pv[i], hv[i]; {
			case a == b:
				ties++
			case (b > a) == (m.Better == "higher"):
				won++
			}
		}
		pq1, pm, pq3 := quartiles(pv)
		hq1, hm, hq3 := quartiles(hv)
		change := (hm - pm) / pm
		worse := worse(change, m)
		verdict := "within"
		allBetter := won == len(pairs)
		switch noise := math.Abs((pq3 - pq1) / pm); {
		case worse > m.Bound:
			verdict = "REGRESSED"
		case noise > m.Bound && !allBetter:
			verdict = "unresolved (parent spread wider than the bound)"
		}
		fmt.Fprintf(w, "| %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.2f%% | head better in %d/%d (ties %d) | bound %g%% | %s |\n",
			m.Name, pm, pq1, pq3, hm, hq1, hq3, 100*change, won, len(pairs), ties, 100*m.Bound, verdict)
	}
	ungatedTable(w, pairs, side)
}

// unbounded returns each side's medians of an ungated host timing over
// the pairs whose runs carry records.
func unbounded(side map[string]map[int]record, pairs []int, name string) (v [2][]float64) {
	for _, p := range pairs {
		for i, s := range []string{"parent", "head"} {
			if rec := side[s][p].Record; rec != nil {
				if u, ok := rec.Unbounded[name]; ok {
					v[i] = append(v[i], u.Median)
				}
			}
		}
	}
	return v
}

// ungatedTable prints, when the runs carry records, each side's median
// [q1, q3] over the pairs of every ungated host timing.
func ungatedTable(w io.Writer, pairs []int, side map[string]map[int]record) {
	header := false
	for _, name := range ungated {
		v := unbounded(side, pairs, name)
		if len(v[0]) == 0 || len(v[1]) == 0 {
			continue
		}
		if !header {
			fmt.Fprint(w, "\nNot gated (host timings from the runs' records: no bound, no verdict):\n\n")
			fmt.Fprintln(w, "| metric | parent | head |")
			fmt.Fprintln(w, "|---|---|---|")
			header = true
		}
		pq1, pm, pq3 := quartiles(v[0])
		hq1, hm, hq3 := quartiles(v[1])
		fmt.Fprintf(w, "| %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] |\n", name, pm, pq1, pq3, hm, hq1, hq3)
	}
}
