// Command bench is the repository's two-clock benchmark: five workloads
// measured on the host clock (what the simulator costs to run) and the
// virtual clock (what the modelled network of workstations would take),
// every result verified against the sequential oracle. See README.md.
//
//	go run ./bench -workload paged8            one untraced run: end-to-end metrics
//	go run ./bench -workload paged8 -trace 1   one traced run: per-layer metrics + bench/out/trace.json
//	go run ./bench [-runs N] [-sets K] [-trace 1]   every workload, one child process per run
//	go run ./bench -compare A.json B.json      regression check between two result files
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// logw takes progress and failure lines; stdout carries results only.
var logw io.Writer = os.Stderr

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

// record is one run of one workload: its end-to-end metrics (trace off)
// or its per-layer metrics (trace on).
type record struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Passes       int                `json:"passes"`
	TimedWindowS float64            `json:"timed_window_s"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	Tail         string             `json:"tail_percentile"`
	Error        string             `json:"error,omitempty"`
	Metrics      map[string]summary `json:"metrics"`
	// Untraced runs only: the run's calibration (see calib.go) and the
	// metrics no bound gates (see unbounded in metrics.go).
	HostSpeed *hostSpeed         `json:"host_speed,omitempty"`
	Unbounded map[string]summary `json:"unbounded,omitempty"`
}

type hostSpeed struct {
	CalibS     summary `json:"calib_s"`
	ReferenceS float64 `json:"reference_s"`
	Factor     float64 `json:"factor"`
}

const noTail = "none: every timing has fewer than 20 samples, so no percentile has ten samples beyond it"

// result is the line the acceptance harness reads: the last line of a
// single-workload run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally adds a pass's operations to the run's count.
func (r *record) tally(p passResult) {
	r.OpsAttempted += p.Ops
	r.OpsFailed += p.Failed
}

func (r record) result() result {
	out := result{Correct: r.OpsFailed == 0 && r.Error == "", Attempted: r.OpsAttempted, Failed: r.OpsFailed, Metrics: map[string]resultValue{}}
	for name, s := range r.Metrics {
		out.Metrics[name] = resultValue{Value: s.Median, Unit: s.Unit}
	}
	return out
}

// samples collects one series per metric, dropping the NaNs a failed
// pass leaves behind.
type samples map[string][]float64

func (s samples) add(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		s[name] = append(s[name], v)
	}
}

func (s samples) addPass(p passResult) {
	s.add("host_wall_s", p.WallS)
	s.add("host_alloc_MB", p.AllocMB)
	if p.Failed > 0 {
		return
	}
	s.add("virt_speedup_geomean", p.Speedup)
	s.add("wire_MB", float64(p.Counts.Bytes)/1e6)
	s.add("wire_kmsgs", float64(p.Counts.Messages)/1e3)
	s.add("serve_e2e_mean_virt_ms", p.E2EMeanMS)
	s.add("serve_capacity_jobs_per_virt_s", p.Capacity)
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setUp builds the oracles and runs one untimed warm-up pass, returning
// the host seconds both took and the seconds the oracles alone took.
func setUp(w workload, opt options, first bool, rec *record) (totalS, oracleS float64) {
	t0 := nowNS()
	if err := w.buildOracles(first); err != nil {
		rec.Error = err.Error()
	}
	oracleS = sinceS(t0)
	rec.tally(w.pass(nil, 0, opt.seed))
	return sinceS(t0), oracleS
}

// measure is the untraced run: three set-ups, then passes of fixed work
// until the timed window closes; every end-to-end metric comes from here.
func measure(w workload, opt options) record {
	rec := record{Workload: w.Name, Seed: opt.seed, GOMAXPROCS: runtime.GOMAXPROCS(0), Tail: noTail}
	setups, minPasses := 3, 3
	if opt.smoke {
		setups, minPasses = 1, 1
	}
	s := samples{}
	var calib []float64
	calibrated := func() {
		if opt.smoke {
			calib = append(calib, referenceCalibS) // the smoke profile reports raw seconds
			return
		}
		calib = append(calib, calibrate())
	}
	for i := 0; i < setups; i++ {
		calibrated()
		total, _ := setUp(w, opt, i == 0, &rec)
		s.add("setup_s", total)
	}
	t0 := nowNS()
	for rec.Passes < minPasses || (!opt.smoke && sinceS(t0) < opt.seconds) {
		calibrated()
		p := w.pass(nil, 0, opt.seed)
		rec.Passes++
		rec.tally(p)
		s.addPass(p)
	}
	rec.TimedWindowS = sinceS(t0)

	// Host seconds are reported at the reference box's speed.
	factor := referenceCalibS / median(calib)
	rec.HostSpeed = &hostSpeed{CalibS: summarize("s", calib), ReferenceS: referenceCalibS, Factor: factor}
	scaled := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * factor
		}
		return out
	}
	rec.Unbounded = map[string]summary{
		"host_wall_s":      summarize("s", scaled(s["host_wall_s"])),
		"host_wall_raw_s":  summarize("s", s["host_wall_s"]),
		"setup_raw_s":      summarize("s", s["setup_s"]),
		"host_peak_rss_MB": summarize("MB", []float64{peakRSSMB()}),
	}
	s["setup_s"] = scaled(s["setup_s"])
	rec.Metrics = map[string]summary{}
	for _, m := range endToEnd {
		rec.Metrics[m.Name] = summarize(m.Unit, s[m.Name])
	}
	return rec
}

// traced is the traced run: untraced passes for the overhead baseline,
// one pass with spans on, then every per-layer driver. It reports the
// per-layer metrics and writes the spans to <outDir>/trace.json.
func traced(w workload, opt options) record {
	rec := record{Workload: w.Name, Seed: opt.seed, Trace: true, GOMAXPROCS: runtime.GOMAXPROCS(0), Tail: noTail}
	_, oracleS := setUp(w, opt, true, &rec)
	baseline := 3
	if opt.smoke {
		baseline = 1
	}
	var walls []float64
	for i := 0; i < baseline; i++ {
		p := w.pass(nil, 0, opt.seed)
		rec.tally(p)
		walls = append(walls, p.WallS)
	}
	tr := newTracer(w.Name)
	root := tr.begin(0, "bench", "workload "+w.Name)
	t0 := nowNS()
	p := w.pass(tr, root, opt.seed)
	rec.TimedWindowS = sinceS(t0)
	rec.Passes = 1
	rec.tally(p)

	values := map[string]float64{
		"harness.seq_oracle_s": oracleS,
		"harness.pass_wall_s":  median(walls),
		"harness.peak_rss_MB":  peakRSSMB(), // the workload's passes only: the drivers have not run yet
		"trace.overhead_pct":   100 * (p.WallS/median(walls) - 1),
	}
	workloadCounts(values, p, tr.snapshot())
	ops, failed := runDrivers(values, tr, root, opt)
	rec.OpsAttempted += ops
	rec.OpsFailed += failed
	tr.end(root, nil)

	rec.Metrics = map[string]summary{}
	for _, m := range perLayer() {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(logw, "FAIL %s: per-layer metric %s has no value\n", w.Name, m.Name)
			rec.OpsFailed++
			v = 0
		}
		rec.Metrics[m.Name] = summarize(m.Unit, []float64{v})
	}
	if err := writeTrace(filepath.Join(opt.outDir, "trace.json"), tr.snapshot()); err != nil {
		rec.Error = err.Error()
	}
	return rec
}

// workloadCounts derives the per-workload layer metrics from the traced
// pass: protocol counters summed over its cells or jobs, and the pass
// span's self time.
func workloadCounts(v map[string]float64, p passResult, spans []span) {
	c := p.Counts
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	v["network.frames_k"] = float64(c.Frames) / 1e3
	v["network.msgs_per_frame"] = ratio(c.Messages, c.Frames)
	v["network.bytes_per_msg"] = ratio(c.Bytes, c.Messages)
	v["network.host_kmsg_per_s"] = float64(c.Messages) / 1e3 / p.WallS
	v["dsm.page_MB"] = float64(c.PageBytes) / 1e6
	v["dsm.page_kmsgs"] = float64(c.PageMsgs) / 1e3
	v["dsm.sync_MB"] = float64(c.SyncBytes) / 1e6
	v["dsm.sync_kmsgs"] = float64(c.SyncMsgs) / 1e3
	v["dsm.gc_MB"] = float64(c.GCBytes) / 1e6
	v["dsm.gc_kmsgs"] = float64(c.GCMsgs) / 1e3
	v["dsm.gc_epochs"] = float64(c.GCEpochs)
	v["dsm.gc_acq_epochs"] = float64(c.GCAcqEpochs)
	v["dsm.intervals_retired_k"] = float64(c.Retired) / 1e3
	v["dsm.peak_chain"] = float64(c.PeakChain)
	v["dsm.peak_proto_KB"] = float64(c.PeakProtoBytes) / 1024
	v["dsm.pages_validated"] = float64(c.Validated)
	v["dsm.pages_flushed"] = float64(c.Flushed)
	v["dsm.flush_ratio"] = ratio(c.Flushed, c.Flushed+c.Validated)
	v["harness.pass_overhead_pct"] = selfShare(spans, p.Span)
}

// resultsFile is what the all-workloads mode prints and -compare reads.
type resultsFile struct {
	Claim      *string    `json:"claim"` // this benchmark claims no gain
	Go         string     `json:"go"`
	NProc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Seed       uint64     `json:"seed"`
	RunSeconds float64    `json:"run_seconds"`
	Commit     string     `json:"commit"`
	Sets       [][]record `json:"sets"`
	Traced     []record   `json:"traced,omitempty"`
}

// childTimeout is the watchdog on one child run: the acceptance harness
// allows a run 180 s, so a child still going then is hung.
const childTimeout = 180 * time.Second

// runChild re-executes this binary for one run of one workload, so that
// peak RSS is per workload and a hung run can be killed; a child that
// dies without a record counts as one failed operation.
func runChild(w workload, opt options) record {
	fail := func(err error) record {
		return record{Workload: w.Name, Seed: opt.seed, Trace: opt.trace, OpsAttempted: 1, OpsFailed: 1, Error: err.Error(), Tail: noTail}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	traceArg := "0"
	if opt.trace {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", w.Name, "-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds), "-trace", traceArg, "-out", opt.outDir, "-record", fmt.Sprintf("-smoke=%v", opt.smoke))
	cmd.Stderr = logw
	out, err := cmd.Output()
	if err != nil {
		return fail(fmt.Errorf("child %s: %w", w.Name, err))
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Workload == w.Name {
			return rec
		}
	}
	return fail(fmt.Errorf("child %s printed no record", w.Name))
}

func runAll(opt options, runs, sets int) resultsFile {
	out := resultsFile{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opt.seed, RunSeconds: opt.seconds, Commit: commit()}
	untraced := opt
	untraced.trace = false
	for s := 0; s < sets; s++ {
		var set []record
		for _, w := range workloads {
			for k := 0; k < runs; k++ {
				o := untraced
				o.seed = opt.seed + uint64(k)
				rec := runChild(w, o)
				fmt.Fprintf(logw, "set %d %-10s seed %d: %d passes, %d/%d ops failed, wall %.3fs\n",
					s+1, w.Name, o.seed, rec.Passes, rec.OpsFailed, rec.OpsAttempted, rec.Unbounded["host_wall_raw_s"].Median)
				set = append(set, rec)
			}
		}
		out.Sets = append(out.Sets, set)
	}
	if opt.trace {
		for _, w := range workloads {
			rec := runChild(w, opt)
			fmt.Fprintf(logw, "traced %-10s: %d/%d ops failed\n", w.Name, rec.OpsFailed, rec.OpsAttempted)
			out.Traced = append(out.Traced, rec)
		}
	}
	return out
}

// commit names the checkout, when it is one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		opt      options
		name     = flag.String("workload", "", "run one workload in this process (default: all, one child process per run)")
		seed     = flag.Uint64("seed", 1, "workload seed: feeds serve.DriverConfig.Seed, the only seeded input")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and <out>/trace.json; 0 = end-to-end metrics")
		runs     = flag.Int("runs", 1, "all-workloads mode: runs per workload, seeds seed..seed+runs-1")
		sets     = flag.Int("sets", 1, "all-workloads mode: how many times to repeat the whole run set")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		asRecord = flag.Bool("record", false, "print the full record before the result line (the all-workloads mode reads it)")
	)
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the timed window; passes of fixed work repeat until it closes")
	flag.BoolVar(&opt.smoke, "smoke", false, "test scale, one pass, at most 8 processors: the profile `go test` runs")
	flag.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory for trace.json")
	flag.Parse()
	opt.seed, opt.trace = *seed, *trace != 0
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	enc := json.NewEncoder(os.Stdout)
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
	case *name == "":
		enc.SetIndent("", " ")
		out := runAll(opt, *runs, *sets)
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		if opt.smoke {
			w = w.smoke()
		}
		// A run that hangs must still end: say so and exit non-zero
		// before the harness's own limit.
		time.AfterFunc(childTimeout-10*time.Second, func() {
			fmt.Fprintf(os.Stderr, "bench: %s still running after %s; giving up\n", w.Name, childTimeout-10*time.Second)
			os.Exit(1)
		})
		var rec record
		if opt.trace {
			rec = traced(w, opt)
		} else {
			rec = measure(w, opt)
		}
		if *asRecord {
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if err := enc.Encode(rec.result()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if rec.Error != "" {
			fmt.Fprintln(os.Stderr, "bench:", rec.Error)
			os.Exit(1)
		}
	}
}
