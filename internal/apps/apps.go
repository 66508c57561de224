// Package apps holds the seven applications of the evaluation: the
// paper's Table 1 set (ASCI Sweep3D, NAS 3D-FFT, SPLASH-2 Water, TSP,
// QSORT) plus the LU and Barnes-Hut workloads added on top of it. Each
// application subpackage provides implementations of the same
// computation —
//
//	RunSeq   — sequential reference (the baseline for speedups),
//	RunOMP   — backend-neutral OpenMP (internal/core) on the NOW;
//	RunOMPOn — the same source on any core backend (NOW or SMP),
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
	// Messages and Bytes count interconnect traffic during the run
	// (zero for sequential runs) — the raw material of Table 2.
	Messages int64
	Bytes    int64
	// Protocol-metadata footprint of DSM-backed runs (TreadMarks and
	// OpenMP implementations; zero for sequential and MPI runs):
	// IntervalsRetired counts interval records reclaimed by the
	// garbage collector, PeakIntervalChain is the longest
	// per-creator interval list retained on any node, and
	// PeakProtoBytes is the largest metadata footprint (records + diffs
	// + twins) any node ever held.
	IntervalsRetired  int64
	PeakIntervalChain int64
	PeakProtoBytes    int64
	// GC accounting of DSM-backed runs: barrier/fork synchronization
	// episodes the collector examined, the floors the episode trigger
	// announced there (those whose floor crossed dsm.Config.GCPressure
	// behind an open gate), the floors the lock-manager consensus
	// announced, and the per-page validate-vs-flush purge outcomes.
	GCEpisodes       int64
	GCEpochs         int64
	GCAcqEpochs      int64
	GCPagesValidated int64
	GCPagesFlushed   int64
	// Traffic split by protocol cost category (dsm.TrafficBreakdown):
	// page service (page and diff fetches), synchronization (locks,
	// barriers, semaphores, condition variables, fork/join, flush), and
	// GC consensus pushes. The three pairs sum to Messages/Bytes on
	// DSM-backed runs and are zero elsewhere; the scaling-wall table uses
	// them to name the binding cost at each machine size.
	PageMsgs, PageBytes int64
	SyncMsgs, SyncBytes int64
	GCMsgs, GCBytes     int64
	// The fault-wait slice of the virtual-time ledger on DSM-backed runs,
	// summed over nodes: virtual time application threads spent inside
	// fault rounds, the rounds that went to the network, and the pages they
	// fetched. FaultWait / (procs × Time) is the mean per-thread time share
	// the scaling table prints beside the byte shares.
	FaultWait               sim.Time
	FaultRounds, FaultPages int64
	// The lock-wait slice, likewise summed over nodes: virtual time threads
	// spent inside lock acquires, from the call to the grant.
	LockWait sim.Time
	// The part of FaultWait and FaultRounds spent while the faulting thread
	// held a lock (a critical section's own fault rounds).
	LockFaultWait   sim.Time
	LockFaultRounds int64
	// The collector's validation wave, likewise summed over nodes: the
	// virtual time threads spent in it, and its fetch-exchange traffic —
	// which PageMsgs/PageBytes above INCLUDE (the wave fetches pages and
	// diffs like a fault does); the pair says how much of "page service" no
	// thread asked for.
	GCWait                  sim.Time
	GCWaveMsgs, GCWaveBytes int64
	// Frames counts the datagrams that actually crossed the wire: with
	// frame coalescing several logical messages share one datagram, so
	// Messages - Frames is the number of per-message network headers the
	// coalescing saved.
	Frames int64
}

// ProtoSource reports DSM protocol-metadata counters and the traffic
// category split; dsm.System and core.Program both implement it.
type ProtoSource interface {
	ProtoSummary() (retired, peakChain, peakBytes int64)
	GCSummary() dsm.GCStats
	TrafficBreakdown() dsm.TrafficBreakdown
	Frames() int64
}

// DSMResult assembles the Result of a DSM-backed run (TreadMarks or
// OpenMP), attaching the protocol-metadata counters from the run's
// system — the single assembly point for every tmk/omp implementation.
func DSMResult(checksum float64, t sim.Time, msgs, bytes int64, src ProtoSource) Result {
	r := Result{Checksum: checksum, Time: t, Messages: msgs, Bytes: bytes}
	r.IntervalsRetired, r.PeakIntervalChain, r.PeakProtoBytes = src.ProtoSummary()
	g := src.GCSummary()
	r.GCEpisodes, r.GCEpochs, r.GCAcqEpochs = g.Episodes, g.Epochs, g.AcqEpochs
	r.GCPagesValidated, r.GCPagesFlushed = g.PagesValidated, g.PagesFlushed
	tb := src.TrafficBreakdown()
	r.PageMsgs, r.PageBytes = tb.PageMsgs, tb.PageBytes
	r.SyncMsgs, r.SyncBytes = tb.SyncMsgs, tb.SyncBytes
	r.GCMsgs, r.GCBytes = tb.GCMsgs, tb.GCBytes
	r.FaultWait, r.FaultRounds, r.FaultPages = tb.FaultWait, tb.FaultRounds, tb.FaultPages
	r.LockWait, r.LockFaultWait, r.LockFaultRounds = tb.LockWait, tb.LockFaultWait, tb.LockFaultRounds
	r.GCWait, r.GCWaveMsgs, r.GCWaveBytes = tb.GCWait, tb.GCWaveMsgs, tb.GCWaveBytes
	r.Frames = src.Frames()
	return r
}

// Runtime is what a parallel runtime exposes for result assembly;
// core.Program implements it for every backend.
type Runtime interface {
	ProtoSource
	Elapsed() sim.Time
	Traffic() (messages, bytes int64)
}

// RuntimeResult assembles the Result of an OpenMP run from its Program:
// the single assembly point for every app's RunOMPOn, backend-neutral
// (an SMP-backed program reports zero traffic and zero metadata).
func RuntimeResult(checksum float64, rt Runtime) Result {
	msgs, bytes := rt.Traffic()
	return DSMResult(checksum, rt.Elapsed(), msgs, bytes, rt)
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
