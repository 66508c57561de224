package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// signed lists the metrics that are differences and may fall below zero.
var signed = map[string]bool{"trace.overhead_pct": true, "dsm.gc_barrier_epoch_ns": true, "dsm.gc_barrier_epoch_virt_us": true}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to metrics.go and
// workloads.go, and the README to both.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command %v, want %v", bj.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths %v, want %v", bj.Paths, want)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q breaks the unit rule", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not document %s `%s`", kind, name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.Name, "")
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, defined %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check("end-to-end metric", m.Name, m.Unit)
		d := bj.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, defined %+v", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layer := perLayer()
	if len(bj.PerLayer) != len(layer) || len(layer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d defined (at most 128)", len(bj.PerLayer), len(layer))
	}
	for i, m := range layer {
		check("per-layer metric", m.Name, m.Unit)
		d := bj.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: declared %+v, defined %+v", i, d, m)
		}
	}
}

// TestBenchSmoke runs every workload through both kinds of run at the
// smoke profile and checks that each declared metric comes out once,
// finite and — unless it is a difference — not negative, with no failed
// operation.
func TestBenchSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	opt := options{seed: 1, seconds: 1, smoke: true, outDir: t.TempDir()}
	for _, decl := range bj.Workloads {
		w, ok := findWorkload(decl.Name)
		if !ok {
			t.Fatalf("declared workload %q is not defined", decl.Name)
		}
		w = w.smoke()
		untraced, withTrace := measure(w, opt), traced(w, opt)
		for _, run := range []struct {
			rec   record
			names []string
		}{{untraced, names(bj.EndToEnd)}, {withTrace, names(bj.PerLayer)}} {
			rec := run.rec
			if rec.OpsFailed != 0 || rec.Error != "" || rec.OpsAttempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed, error %q", w.Name, rec.Trace, rec.OpsFailed, rec.OpsAttempted, rec.Error)
			}
			if len(rec.Metrics) != len(run.names) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, rec.Trace, len(rec.Metrics), len(run.names))
			}
			for _, name := range run.names {
				s, ok := rec.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.Name, name)
				case math.IsNaN(s.Median) || math.IsInf(s.Median, 0):
					t.Errorf("%s: metric %s is %v", w.Name, name, s.Median)
				case s.Median < 0 && !signed[name]:
					t.Errorf("%s: metric %s is negative: %v", w.Name, name, s.Median)
				case s.Median == 0 && !rec.Trace:
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, name)
				}
			}
			if _, err := json.Marshal(rec.result()); err != nil {
				t.Errorf("%s: result line does not encode: %v", w.Name, err)
			}
		}
		if _, err := os.Stat(opt.outDir + "/trace.json"); err != nil {
			t.Errorf("%s: traced run wrote no trace: %v", w.Name, err)
		}
	}
}

func names(decl []declared) []string {
	var out []string
	for _, d := range decl {
		out = append(out, d.Name)
	}
	return out
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from CPython 3.11.
	for _, c := range []struct{ v, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, []float64{2, 8, 32}},
		{[]float64{7}, []float64{7, 7, 7}},
	} {
		q1, m, q3 := quartiles(c.v)
		if got := []float64{q1, m, q3}; !reflect.DeepEqual(got, c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 50}, // overlaps span 3: the union counts once
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 70},
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // clipped to its parent
		{ID: 5, Parent: 2, StartNS: 10, EndNS: 20},
	}
	want := map[int]int64{1: 100 - 60 - 10, 2: 30, 3: 40, 4: 30, 5: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := selfShare(spans, 1); got != 30 {
		t.Errorf("selfShare = %v, want 30", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := e2eMetric{Name: "t", Better: "lower", Bound: 0.10}
	higher := e2eMetric{Name: "r", Better: "higher", Bound: 0.10}
	steady := func(x float64) []float64 { return []float64{x, x, x, x} }
	for _, c := range []struct {
		m          e2eMetric
		base, cand []float64
		want       string
	}{
		{lower, steady(100), steady(109), "within"},
		{lower, steady(100), steady(111), "regressed"},
		{lower, steady(100), steady(50), "within"},
		{higher, steady(100), steady(89), "regressed"},
		{higher, steady(100), steady(150), "within"},
		{lower, []float64{80, 95, 105, 120}, steady(130), "unresolved"},
	} {
		if _, _, got := verdict(c.m, c.base, c.cand); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Better, c.base, c.cand, got, c.want)
		}
	}
}
