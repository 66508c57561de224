// Package apps holds the seven applications of the evaluation: the
// paper's Table 1 set (ASCI Sweep3D, NAS 3D-FFT, SPLASH-2 Water, TSP,
// QSORT) plus the LU and Barnes-Hut workloads added on top of it. Each
// application subpackage provides implementations of the same
// computation —
//
//	RunSeq   — sequential reference (the baseline for speedups),
//	RunOMP   — backend-neutral OpenMP (internal/core) on the NOW;
//	RunOMPOn — the same source on any core backend (NOW, SMP or hybrid),
//	RunTmk   — hand-coded TreadMarks (internal/dsm directly),
//	RunMPI   — hand-coded message passing (internal/mpi),
//
// all returning a Result whose Checksum must agree with the sequential
// run, which is how the protocol stack is validated end to end.
package apps

import (
	"fmt"
	"math"

	"repro/internal/dsm"
	"repro/internal/sim"
)

// Result summarizes one application run.
type Result struct {
	// Checksum is an implementation-independent digest of the computed
	// output, compared against the sequential run.
	Checksum float64
	// Time is the virtual execution time (max over nodes).
	Time sim.Time
	// Report is the run's accounting — Table 2's traffic, its cost
	// categories, the time ledger, GC and metadata counters — read off
	// the dsm.System or core.Program that ran it. Sequential runs leave it
	// zero and MPI runs fill only Messages and Bytes.
	dsm.Report
}

// Close reports whether two checksums agree to within a relative
// tolerance (parallel summation reorders floating-point reductions).
func Close(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d == 0
	}
	return d/m <= rel
}

// CheckClose returns an error when two checksums disagree beyond rel.
func CheckClose(name string, got, want, rel float64) error {
	if !Close(got, want, rel) {
		return fmt.Errorf("%s: checksum %v differs from sequential %v (rel tol %g)", name, got, want, rel)
	}
	return nil
}
