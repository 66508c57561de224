// Command nowomp runs one application of the paper's suite on the
// simulated network of workstations and reports time, speedup, traffic,
// and checksum validation:
//
//	nowomp -app Water -impl omp -procs 8
//	nowomp -app Water -impl omp-smp -procs 8
//	nowomp -app Water -impl omp-hybrid -procs 8 -islands 2
//	nowomp -app TSP -impl mpi -procs 4 -scale test
//
// Implementations: seq (sequential reference), omp (compiled OpenMP on
// TreadMarks over the NOW), omp-smp (the same OpenMP source on the
// hardware-shared-memory backend), omp-hybrid (the same source on a NOW
// of SMP islands; -islands sets the island count), tmk (hand-coded
// TreadMarks), mpi (hand-coded MPI).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
)

func main() {
	var (
		app     = flag.String("app", "", "application: Sweep3D, 3D-FFT, Water, TSP, QSORT, LU, Barnes")
		impl    = flag.String("impl", "omp", "implementation: seq, omp, omp-smp, omp-hybrid, tmk, mpi")
		procs   = flag.Int("procs", 8, "number of simulated processors")
		islands = flag.Int("islands", 0, "SMP island count for omp-hybrid (0 = default 2)")
		scale   = flag.String("scale", "full", "workload scale: full or test")
	)
	flag.Parse()
	if *islands > 0 {
		harness.HybridIslands = *islands
	}

	a, ok := harness.FindApp(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "nowomp: unknown app %q (have: %s)\n", *app, strings.Join(harness.AppNames(), ", "))
		os.Exit(2)
	}
	s := harness.Scale(*scale)
	seq := a.RunSeq(s)
	res, err := harness.Verified(a, s, harness.Impl(*impl), *procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowomp:", err)
		os.Exit(1)
	}
	fmt.Printf("%s / %s on %d processors (%s scale)\n", a.Name, *impl, *procs, s)
	fmt.Printf("  sequential time : %s\n", seq.Time)
	fmt.Printf("  parallel time   : %s\n", res.Time)
	fmt.Printf("  speedup         : %.2f\n", seq.Time.Seconds()/res.Time.Seconds())
	fmt.Printf("  messages        : %d\n", res.Messages)
	fmt.Printf("  data            : %.2f MB\n", float64(res.Bytes)/1e6)
	if res.FaultRounds > 0 {
		fmt.Printf("  fault rounds    : %d (%d pages, %d of them group pages)\n", res.FaultRounds, res.FaultPages, res.GroupPages)
	}
	if res.DiffsCreated > 0 {
		fmt.Printf("  diffs           : %d created, %d of them paid (served, granted or invalidated), %d merged into an earlier one's reply\n",
			res.DiffsCreated, res.DiffsPaid, res.DiffsMerged)
	}
	fmt.Printf("  checksum        : %g (validated against sequential)\n", res.Checksum)
}
