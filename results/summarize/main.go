// Command summarize turns the run records of results/pairs.sh into the
// per-workload tables of results/BENCH_<n>.md: for every end-to-end
// metric of BENCHMARK.json the median [lower quartile, upper quartile] of
// each side, the change of the medians, the pairs the head won, and the
// verdict against the metric's bound. Runs that carry the benchmark's full
// record add a second table of its host timings, which no bound gates:
// each side's median [q1, q3] of the runs' medians, with no verdict.
//
//	go run ./results/summarize results/BENCH_18.jsonl
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
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: summarize <runs.jsonl>")
		os.Exit(2)
	}
	if err := run(os.Stdout, "BENCHMARK.json", os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "summarize:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, benchmark, path string) error {
	raw, err := os.ReadFile(benchmark)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var order []string
	byWorkload := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Side != "parent" && r.Side != "head" {
			return fmt.Errorf("%s:%d: side %q is neither parent nor head", path, line, r.Side)
		}
		if _, seen := byWorkload[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, name := range order {
		table(w, name, byWorkload[name], bench.EndToEnd)
	}
	return nil
}

func table(w io.Writer, workload string, recs []record, metrics []metricDef) {
	side := map[string]map[int]record{"parent": {}, "head": {}}
	clean := true
	for _, r := range recs {
		side[r.Side][r.Pair] = r
		clean = clean && r.Result.Correct && r.Result.Failed == 0
	}
	var pairs []int
	for p := range side["parent"] {
		if _, ok := side["head"][p]; ok {
			pairs = append(pairs, p)
		}
	}
	slices.Sort(pairs)
	fmt.Fprintf(w, "\n## %s: %d pairs, correct and failed=0 on all %d runs: %v\n\n", workload, len(pairs), len(recs), clean)
	fmt.Fprintln(w, "| metric | parent | head | median change | pairs | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, m := range metrics {
		var pv, hv []float64
		won, ties := 0, 0
		for _, p := range pairs {
			a, b := side["parent"][p].Result.Metrics[m.Name].Value, side["head"][p].Result.Metrics[m.Name].Value
			pv, hv = append(pv, a), append(hv, b)
			switch {
			case a == b:
				ties++
			case (b > a) == (m.Better == "higher"):
				won++
			}
		}
		if len(pairs) == 0 {
			continue
		}
		pq1, pm, pq3 := quartiles(pv)
		hq1, hm, hq3 := quartiles(hv)
		change := (hm - pm) / pm
		worse := change // how far the head's median is on the wrong side
		if m.Better == "higher" {
			worse = -change
		}
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

// ungatedTable prints, when the runs carry records, each side's median
// [q1, q3] over the pairs of every ungated host timing.
func ungatedTable(w io.Writer, pairs []int, side map[string]map[int]record) {
	header := false
	for _, name := range ungated {
		var v [2][]float64
		for _, p := range pairs {
			for i, s := range []string{"parent", "head"} {
				if rec := side[s][p].Record; rec != nil {
					if u, ok := rec.Unbounded[name]; ok {
						v[i] = append(v[i], u.Median)
					}
				}
			}
		}
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
