package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return f, fmt.Errorf("%s: no run sets", path)
	}
	return f, nil
}

// runMedians gathers, per workload and metric, each run's median.
func runMedians(set []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range set {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, metrics := range []map[string]summary{r.Metrics, r.Unbounded} {
			for name, s := range metrics {
				if s.N > 0 {
					out[r.Workload][name] = append(out[r.Workload][name], s.Median)
				}
			}
		}
	}
	return out
}

// verdict judges one (metric, workload) pair: worse is how far the
// candidate's median moved in the bad direction as a share of the
// baseline's; noise is the wider of the two sets' run-to-run spreads.
func verdict(m e2eMetric, base, cand []float64) (worse, noise float64, status string) {
	a, b := median(base), median(cand)
	if a != 0 {
		worse = (b - a) / a
	}
	if m.Better == "higher" {
		worse = -worse
	}
	noise = max(spread(base), spread(cand))
	switch {
	case noise > m.Bound:
		status = "unresolved"
	case worse > m.Bound:
		status = "regressed"
	default:
		status = "within"
	}
	return worse, noise, status
}

// compareFiles prints one row per (metric, workload): the baseline is the
// first run set of file a, the candidate the last run set of file b (so a
// file holding two sets compares against itself). It reports whether any
// pair regressed.
func compareFiles(w io.Writer, a, b string) (regressed bool, err error) {
	fa, err := loadResults(a)
	if err != nil {
		return false, err
	}
	fb, err := loadResults(b)
	if err != nil {
		return false, err
	}
	base, cand := runMedians(fa.Sets[0]), runMedians(fb.Sets[len(fb.Sets)-1])
	fmt.Fprintf(w, "%-32s %-10s %14s %14s %8s %7s %7s  %s\n", "metric", "workload", "baseline", "candidate", "worse", "spread", "bound", "verdict")
	for _, m := range endToEnd {
		for _, wl := range workloads {
			x, y := base[wl.Name][m.Name], cand[wl.Name][m.Name]
			if len(x) == 0 || len(y) == 0 {
				continue
			}
			worse, noise, status := verdict(m, x, y)
			regressed = regressed || status == "regressed"
			fmt.Fprintf(w, "%-32s %-10s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				m.Name, wl.Name, median(x), median(y), 100*worse, 100*noise, 100*m.Bound, status)
		}
	}
	// The unbounded metrics are shown for the record: no verdict.
	for _, u := range unbounded {
		for _, wl := range workloads {
			x, y := base[wl.Name][u.Name], cand[wl.Name][u.Name]
			if len(x) == 0 || len(y) == 0 {
				continue
			}
			worse, noise, _ := verdict(e2eMetric{Better: u.Better}, x, y)
			fmt.Fprintf(w, "%-32s %-10s %14.6g %14.6g %+7.1f%% %6.1f%% %7s  %s\n",
				u.Name, wl.Name, median(x), median(y), 100*worse, 100*noise, "-", "info")
		}
	}
	return regressed, nil
}
