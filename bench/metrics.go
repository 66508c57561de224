package main

// The metric catalogue: every number the benchmark prints is declared
// here, and BENCHMARK.json and README.md are checked against it by
// bench_test.go.

// e2eMetric is one end-to-end metric. Bound is the share of the
// baseline's median by which it may worsen before a change counts as a
// regression; it holds on every workload, so it is sized for the
// noisiest one (named in Def where that matters).
type e2eMetric struct {
	Name, Unit, Better string
	Bound              float64
	Def                string
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25,
		"host seconds to build the sequential oracles and run one untimed warm-up pass, in reference seconds (raw seconds scaled by the run's calibration kernel, see calib.go); median of three set-ups per run"},
	{"host_alloc_MB", "MB", "lower", 0.03,
		"runtime.MemStats.TotalAlloc delta of one pass, median over passes: the host-cost figure that repeats (to 0.8 %) on a box whose speed does not"},
	{"virt_speedup_geomean", "x", "higher", 0.05,
		"Figure 6: geomean over cells (serve-mix: over job classes) of sequential / parallel virtual time, median over passes; 5 % is sized for locks8, whose lock-grant order is schedule-variant"},
	{"wire_MB", "MB", "lower", 0.05,
		"Table 2 data: sum of Result.Bytes over the pass's cells or jobs, median over passes"},
	{"wire_kmsgs", "kmsg", "lower", 0.05,
		"Table 2 messages: sum of Result.Messages over the pass, in thousands, median over passes"},
	{"serve_e2e_mean_virt_ms", "ms", "lower", 0.10,
		"mean virtual submission-to-completion latency of a job; serve-mix: job-weighted mean of ClassStats.E2E.Mean() over a 40000-job open-loop stream at 32 jobs/s replayed through Scheduler.Serve with the pass's measured service times; batch workloads are a closed loop with one client, so a job is a cell and its latency is its virtual run time"},
	{"serve_capacity_jobs_per_virt_s", "jobs/s", "higher", 0.10,
		"jobs completed per virtual second; serve-mix: Report.Throughput() of the same replay at 1000 jobs/s (service-bound); batch workloads: cells / sum of virtual run times (by Little's law the reciprocal of the latency above, hence the same bound: scale64's sum is mostly Sweep3D p32, whose virtual time moves 8 % from run to run)"},
}

// unbounded lists what an untraced run also records but no bound gates:
// host timings, which on the reference box move by tens of per cent with
// its neighbours' load (README, "Noise"), and peak RSS, which on serve-mix
// is bimodal. A host-time claim is made with paired alternating runs on
// these, not against a fixed bound.
var unbounded = []struct{ Name, Unit, Better, Def string }{
	{"host_wall_s", "s", "lower", "host wall-clock seconds of one pass in reference seconds (raw × the run's calibration factor), median over passes"},
	{"host_wall_raw_s", "s", "lower", "the same, as read off the clock"},
	{"setup_raw_s", "s", "lower", "setup_s as read off the clock"},
	{"host_peak_rss_MB", "MB", "lower", "the process's peak resident set (getrusage Maxrss) at the end of the run; one process per workload"},
}

// layerMetric is one per-layer metric. Source says where the value comes
// from: "driver" metrics time a batch of calls into the layer's public
// API and are the same whichever workload the traced run was started for;
// "workload" metrics are counts read in the traced pass of that workload.
type layerMetric struct {
	Name, Unit, Better, Source string
}

// layerGroup ties a group of per-layer metrics to the end-to-end metric
// they should move and the workload on which the prediction is no change.
type layerGroup struct {
	Layer    string
	Moves    string
	NoChange string
	Metrics  []layerMetric
}

func drv(name, unit string) layerMetric  { return layerMetric{name, unit, "lower", "driver"} }
func drvH(name, unit string) layerMetric { return layerMetric{name, unit, "higher", "driver"} }
func cnt(name, unit string) layerMetric  { return layerMetric{name, unit, "lower", "workload"} }

var appNames = []string{"Sweep3D", "3D-FFT", "Water", "TSP", "QSORT", "LU", "Barnes"}

var layerGroups = []layerGroup{
	{"sim", "host_wall_s on nodsm8 (compute charging dominates there)", "every virtual metric on every workload", []layerMetric{
		drv("sim.clock_advance_ns", "ns"), drv("sim.clock_advance_to_ns", "ns"), drv("sim.meter_compute_ns", "ns"),
	}},
	{"network", "host_wall_s and host_alloc_MB on scale64 first, paged8 second; network.rtt_virt_us moves virt_speedup_geomean on every DSM workload", "nodsm8's omp-smp cells (no interconnect)", []layerMetric{
		drv("network.send_recv_ns", "ns"), drv("network.send_recv_4k_ns", "ns"), drv("network.frame_send_ns", "ns"),
		drv("network.try_send_ns", "ns"), drv("network.allocs_per_msg", "count"), drv("network.rtt_virt_us", "us"),
		cnt("network.frames_k", "count"), {"network.msgs_per_frame", "ratio", "higher", "workload"},
		cnt("network.bytes_per_msg", "B"), {"network.host_kmsg_per_s", "kmsg/s", "higher", "workload"},
	}},
	{"dsm page path", "host variants: host_wall_s on paged8; virtual variants: virt_speedup_geomean on paged8 and scale64, wire_MB on paged8", "nodsm8 (no DSM); smaller on locks8", []layerMetric{
		drv("dsm.page_fault_cold_ns", "ns"), drv("dsm.page_fault_cold_virt_us", "us"),
		drv("dsm.diff_fetch_word_ns", "ns"), drv("dsm.diff_fetch_word_virt_us", "us"),
		drv("dsm.diff_fetch_page_ns", "ns"), drv("dsm.diff_fetch_page_virt_us", "us"),
		drv("dsm.read_hit_ns", "ns"), drv("dsm.write_hit_ns", "ns"), drv("dsm.bulk_read_hit_ns_per_KB", "ns/KB"),
		cnt("dsm.page_MB", "MB"), cnt("dsm.page_kmsgs", "kmsg"),
	}},
	{"dsm synchronisation", "lock/sema/cond: virt_speedup_geomean and wire_MB on locks8; barrier p32/p128: virt_speedup_geomean and host_wall_s on scale64", "lock/sema/cond: paged8; barrier p32/p128: the P = 8 workloads (flat paths are pinned); all: nodsm8", []layerMetric{
		drv("dsm.lock_local_ns", "ns"),
		drv("dsm.lock_2hop_ns", "ns"), drv("dsm.lock_2hop_virt_us", "us"),
		drv("dsm.lock_3hop_ns", "ns"), drv("dsm.lock_3hop_virt_us", "us"),
		drv("dsm.sema_handoff_ns", "ns"), drv("dsm.sema_handoff_virt_us", "us"),
		drv("dsm.cond_signal_ns", "ns"), drv("dsm.cond_signal_virt_us", "us"),
		drv("dsm.barrier_p8_ns", "ns"), drv("dsm.barrier_p8_virt_us", "us"),
		drv("dsm.barrier_p32_ns", "ns"), drv("dsm.barrier_p32_virt_us", "us"),
		drv("dsm.barrier_p128_ns", "ns"), drv("dsm.barrier_p128_virt_us", "us"),
		drv("dsm.fork_join_p8_ns", "ns"), drv("dsm.fork_join_p8_virt_us", "us"),
		drv("dsm.bytes_per_barrier_p8", "B"), drv("dsm.bytes_per_lock_handoff", "B"),
		cnt("dsm.sync_MB", "MB"), cnt("dsm.sync_kmsgs", "kmsg"),
	}},
	{"dsm metadata GC and lifecycle", "GC: virt_speedup_geomean and wire_MB on locks8 and scale64 (Sweep3D p32), host_peak_rss_MB on scale64; new_close: host_wall_s and setup_s on serve-mix", "GC: nodsm8; new_close: the batch workloads", []layerMetric{
		drv("dsm.gc_barrier_epoch_ns", "ns"), drv("dsm.gc_barrier_epoch_virt_us", "us"), drv("dsm.gc_acquire_epoch_us", "us"),
		drv("dsm.new_close_p8_us", "us"), drv("dsm.new_close_p64_us", "us"),
		cnt("dsm.gc_MB", "MB"), cnt("dsm.gc_kmsgs", "kmsg"), cnt("dsm.gc_epochs", "count"), cnt("dsm.gc_acq_epochs", "count"),
		cnt("dsm.intervals_retired_k", "count"), cnt("dsm.peak_chain", "count"), cnt("dsm.peak_proto_KB", "KB"),
		cnt("dsm.pages_validated", "count"), cnt("dsm.pages_flushed", "count"), cnt("dsm.flush_ratio", "ratio"),
	}},
	{"mpi", "host_wall_s and virt_speedup_geomean on nodsm8", "paged8, locks8, scale64 (no MPI cells)", []layerMetric{
		drv("mpi.sendrecv_ns", "ns"), drv("mpi.rtt_virt_us", "us"), drvH("mpi.bw_virt_MBps", "MB/s"),
		drv("mpi.barrier_p8_ns", "ns"),
		drv("mpi.allreduce_p8_ns", "ns"), drv("mpi.allreduce_p8_virt_us", "us"),
		drv("mpi.alltoall_p8_ns", "ns"), drv("mpi.alltoall_p8_virt_us", "us"),
	}},
	{"core", "smp variants: host_wall_s on nodsm8; now/hybrid variants: virt_speedup_geomean on paged8 (the omp vs tmk gap); new_close: host_wall_s on serve-mix", "smp variants: paged8, locks8, scale64; now/hybrid variants: nodsm8", []layerMetric{
		drv("core.fork_join_now_ns", "ns"), drv("core.fork_join_now_virt_us", "us"), drv("core.fork_join_smp_ns", "ns"),
		drv("core.fork_join_hybrid_ns", "ns"), drv("core.fork_join_hybrid_virt_us", "us"),
		drv("core.critical_now_ns", "ns"), drv("core.critical_smp_ns", "ns"),
		drv("core.reduce_now_ns", "ns"), drv("core.reduce_now_virt_us", "us"),
		drv("core.new_close_now_us", "us"), drv("core.new_close_smp_us", "us"),
	}},
	{"ompc", "nothing end to end (the compiler is off every workload's path); recorded so a compiler change has a number", "every workload", []layerMetric{
		drv("ompc.analyze_us", "us"), drv("ompc.compile_us", "us"),
	}},
	{"apps", "names the cell that moved a workload's host_wall_s or virt_speedup_geomean; apps.TSP.* is pure application compute and bounds what a non-apps change can do to a TSP cell", "a change outside internal/apps moves no apps.*.seq_host_ms", appMetrics()},
	{"harness", "seq_oracle_s: setup_s on every workload; pass_wall_s is the raw host wall-clock of one pass (median of the three untraced baseline passes) and pass overhead should stay near 0; peak_rss_MB is the process's peak resident set after the workload's passes (scale64: GC metadata retention shows here)", "every pass metric", []layerMetric{
		cnt("harness.seq_oracle_s", "s"), cnt("harness.pass_wall_s", "s"), cnt("harness.pass_overhead_pct", "%"),
		cnt("harness.peak_rss_MB", "MB"), drv("harness.micro_ms", "ms"),
	}},
	{"serve", "host_wall_s, serve_e2e_mean_virt_ms and serve_capacity_jobs_per_virt_s on serve-mix", "the batch workloads", []layerMetric{
		drv("serve.job_host_ms_p50", "ms"), drv("serve.job_host_ms_p95", "ms"), drv("serve.sched_overhead_pct", "%"),
		drv("serve.e2e_p50_virt_ms", "ms"), drv("serve.e2e_p95_virt_ms", "ms"), drv("serve.e2e_p99_virt_ms", "ms"),
		drv("serve.wait_mean_virt_ms", "ms"), drvH("serve.util_pct", "%"),
		drv("serve.goroutines_over_baseline_max", "count"), drv("serve.peak_proto_KB", "KB"),
	}},
	{"trace", "nothing: it is the cost of the benchmark's own spans", "every workload", []layerMetric{
		cnt("trace.overhead_pct", "%"),
	}},
}

func appMetrics() []layerMetric {
	var out []layerMetric
	for _, a := range appNames {
		out = append(out,
			drv("apps."+a+".seq_host_ms", "ms"),
			drv("apps."+a+".omp_p8_host_ms", "ms"),
			drvH("apps."+a+".omp_p8_speedup", "x"))
	}
	return out
}

// perLayer flattens the groups in catalogue order.
func perLayer() []layerMetric {
	var out []layerMetric
	for _, g := range layerGroups {
		out = append(out, g.Metrics...)
	}
	return out
}
