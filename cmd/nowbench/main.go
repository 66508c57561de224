// Command nowbench regenerates every table and figure of the paper's
// evaluation on the simulated network of workstations:
//
//	nowbench -table 1              Table 1 (apps, sizes, sequential times)
//	nowbench -figure 6             Figure 6 speedups: OpenMP on the NOW,
//	                               SMP and hybrid NOW-of-SMPs backends vs
//	                               TreadMarks vs MPI
//	nowbench -table 2              Table 2 (data and message counts; the
//	                               omp-smp columns are the zero-traffic
//	                               hardware-shared-memory baseline, the
//	                               omp-hybrid columns inter-island only)
//	nowbench -gc                   protocol-metadata GC accounting table
//	                               (the resolved collection threshold, and
//	                               per app the peak metadata a node held,
//	                               collecting epochs / episodes, and
//	                               acquire-epoch counts)
//	nowbench -micro                Section 6 platform characteristics
//	nowbench -ablation section3    Section 3 flush-vs-sema/condvar studies
//	nowbench -ablation gc          the GC ablation: one axis, the
//	                               collection threshold (every episode,
//	                               low, default, off), over a barrier
//	                               kernel, long Water and a barrier-free
//	                               lock/semaphore kernel
//	nowbench -ablation all         both of the above
//	nowbench -sweep                speedup curves for P = 1,2,4,8
//	nowbench -scaling              the >8-node scaling-wall study: OpenMP
//	                               speedup at P = 8..128 with per-size
//	                               binding-cost attribution (page service
//	                               vs synchronization vs GC consensus);
//	                               NOT part of -all — its 64- and 128-node
//	                               cells are an order of magnitude beyond
//	                               the other artifacts
//	nowbench -all                  everything above except -scaling
//	nowbench -serve                service mode: run a seeded multi-tenant
//	                               job stream over shared backend slots
//	                               and print sustained throughput plus
//	                               queue-wait/end-to-end latency quantiles
//	                               per job class (in virtual time); shape
//	                               it with -jobs, -mix, -arrival, -seed,
//	                               and -serve-width, and see the serve
//	                               package for the mix grammar
//	                               (App:impl:pN[:w=K][:gc=P]);
//	                               NOT part of -all
//
// Add -scale test for a fast run on reduced inputs, -procs N to change
// the processor count of Figure 6 / Table 2, and -islands K to set the
// SMP island count of the omp-hybrid columns (default 2; clamped to the
// processor count). -gcpressure N sets the collection threshold (of the
// one collector's two triggers, barrier/fork episodes and the lock-manager
// consensus) of every cell that does not carry its own (harness.DefaultGC;
// see dsm.Config.GCPressure).
// Independent experiment cells run concurrently on a weighted worker pool
// — SMP and hybrid cells are cheaper than full-protocol NOW cells and pack
// several to a worker slot — with output order unaffected; -workers N
// bounds the pool, and -workers 1 reproduces the fully sequential harness.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/serve"
)

// defaultMix is the -serve job mix when -mix is not given: five classes
// over four applications, spanning the full slot-weight range — TSP on
// the NOW and QSORT on TreadMarks (full slot each), Water on hardware
// shared memory, sequential Sweep3D, and MPI 3D-FFT (quarter slot each).
const defaultMix = "TSP:omp:p4,QSORT:tmk:p4,Water:omp-smp:p4:w=3,Sweep3D:seq:p1:w=3,3D-FFT:mpi:p4:w=2"

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate Table 1 or 2")
		figure   = flag.Int("figure", 0, "regenerate Figure 6")
		micro    = flag.Bool("micro", false, "run the Section 6 platform microbenchmarks")
		gcTable  = flag.Bool("gc", false, "print the protocol-metadata GC accounting table")
		ablation = flag.String("ablation", "", "run ablations: section3 (the flush-vs-sema/condvar studies, also selected by the legacy names pipeline/taskqueue/flushcost), gc, or all")
		sweep    = flag.Bool("sweep", false, "print speedup curves over processor counts")
		scaling  = flag.Bool("scaling", false, "print the >8-node scaling-wall table (P = 8..128)")
		all      = flag.Bool("all", false, "run every experiment")
		procs    = flag.Int("procs", 8, "processor count for Figure 6 and Table 2")
		islands  = flag.Int("islands", 0, "SMP island count for the omp-hybrid columns (0 = default 2)")
		scale    = flag.String("scale", "full", "workload scale: full or test")
		workers  = flag.Int("workers", 0, "grid worker pool width (0 = one per CPU, 1 = sequential)")
		gcPress  = flag.Int("gcpressure", 0, "default GC collection threshold of both triggers, episodes and consensus (0 = dsm default, 1 = every episode)")

		serveMode  = flag.Bool("serve", false, "service mode: run a multi-tenant job stream and print the latency report")
		jobs       = flag.Int("jobs", 500, "service mode: number of jobs in the stream")
		mix        = flag.String("mix", defaultMix, "service mode: job mix, comma-separated App:impl:pN[:w=K][:gc=P]")
		arrival    = flag.Float64("arrival", 40, "service mode: mean arrival rate in jobs per virtual second")
		seed       = flag.Uint64("seed", 1, "service mode: arrival-stream seed")
		serveWidth = flag.Int("serve-width", 2, "service mode: backend slots of the simulated service")
	)
	flag.Parse()

	gc, err := gcKnobs(*gcPress)
	if err != nil {
		fatal(err)
	}
	harness.DefaultGC = gc

	s := harness.Scale(*scale)
	if s != harness.Full && s != harness.Test {
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	if *workers > 0 {
		harness.Workers = *workers
	}
	if *islands > 0 {
		harness.HybridIslands = *islands
	}
	ran := false
	out := os.Stdout

	if *all || *table == 1 {
		ran = true
		check(harness.Table1(out, s))
		fmt.Fprintln(out)
	}
	if *all || *figure == 6 {
		ran = true
		check(harness.Figure6(out, s, *procs))
		fmt.Fprintln(out)
	}
	if *all || *table == 2 {
		ran = true
		check(harness.Table2(out, s, *procs))
		fmt.Fprintln(out)
	}
	if *all || *gcTable {
		ran = true
		check(harness.TableGC(out, s, *procs))
		fmt.Fprintln(out)
	}
	if *all || *micro {
		ran = true
		check(harness.PrintMicro(out))
		fmt.Fprintln(out)
	}
	// The three Section 3 studies print as one artifact; any of their
	// names selects the set.
	section3 := *ablation == "section3" || *ablation == "pipeline" || *ablation == "taskqueue" || *ablation == "flushcost"
	if *all || *ablation == "all" || section3 {
		ran = true
		check(harness.PrintAblations(out))
		fmt.Fprintln(out)
	}
	if *all || *ablation == "all" || *ablation == "gc" {
		ran = true
		check(harness.PrintAblationGC(out))
		fmt.Fprintln(out)
	}
	if *all || *sweep {
		ran = true
		check(harness.SpeedupSweep(out, s, []int{1, 2, 4, 8}))
		fmt.Fprintln(out)
	}
	if *scaling {
		ran = true
		check(harness.TableScaling(out, s, harness.ScalingProcs))
	}
	if *serveMode {
		ran = true
		classes, err := serve.ParseMix(*mix)
		check(err)
		d, err := serve.NewDriver(serve.DriverConfig{Seed: *seed, Rate: *arrival, Mix: classes})
		check(err)
		sched := serve.NewScheduler(serve.Config{Scale: s, Width: *serveWidth, ExecWorkers: *workers})
		rep, err := sched.Serve(d, *jobs)
		check(err)
		rep.Render(out)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nowbench:", err)
	os.Exit(1)
}

// gcKnobs validates -gcpressure: a collection threshold, so never negative.
func gcKnobs(pressure int) (harness.GCKnobs, error) {
	if pressure < 0 {
		return harness.GCKnobs{}, fmt.Errorf("-gcpressure %d: the threshold must not be negative", pressure)
	}
	return harness.GCKnobs{Pressure: pressure}, nil
}
