package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dsm"
	"repro/internal/sim"
)

// The backend seam. The paper's premise is that one OpenMP source runs
// unchanged on whatever executes it — the standard targets hardware
// shared memory, Section 4 retargets it to a network of workstations.
// This file is that premise as an API: every primitive the runtime (TC,
// MC, reductions, the compiler in internal/ompc) needs is expressed
// against Worker, and an application written against the core API runs on
// any backend selected through Config.Backend.
//
// Every backend is one dsm.System; the kinds differ in how the team maps
// onto its nodes (newSystem below):
//
//	BackendNOW    — TreadMarks on the simulated network of workstations:
//	                one node per thread, each thread the node's own
//	                default client. The paper's system.
//	BackendHybrid — a NOW of SMPs: the team mapped onto k SMP islands, one
//	                dsm.Node per island whose team is one dsm.Client per
//	                thread. Intra-island sharing is the island's memory,
//	                intra-island synchronization costs the Platform's
//	                bus-scale SMP* constants, and inter-island coherence is
//	                the LRC DSM (Hu, Lu, Cox and Zwaenepoel, IPPS '99).
//	BackendSMP    — the hybrid backend's one-island case: one SMP, the
//	                hardware shared-memory machine OpenMP was born on and
//	                the paper's implicit baseline. Zero interconnect
//	                traffic.
//
// Degenerate limits (pinned by tests): islands=1 is BackendSMP — zero
// traffic, no ledger, the SMP cost model's clocks; islands=procs is one
// thread per island — the NOW's message pattern exactly.

// Addr is an address in a backend's shared address space. It aliases
// dsm.Addr so hand-coded TreadMarks sources and backend-neutral OpenMP
// sources can share one set of layout helpers.
type Addr = dsm.Addr

// PageSize is the granularity of the NOW backend's consistency unit,
// re-exported so backend-neutral code can page-align shared layouts
// (a no-op for correctness on the SMP backend, but the alignment is what
// keeps the same source false-sharing-free on the NOW).
const PageSize = dsm.PageSize

// PageRound rounds n up to a whole number of pages. It is the single
// page-padding helper for every application's shared layout (omp and tmk
// sources alike).
func PageRound(n int) int {
	if r := n % PageSize; r != 0 {
		n += PageSize - r
	}
	return n
}

// BackendKind selects the execution substrate of a Program.
type BackendKind string

// Available backends. The zero value selects the NOW.
const (
	// BackendNOW runs on TreadMarks over the simulated network of
	// workstations — the paper's system.
	BackendNOW BackendKind = "now"
	// BackendSMP runs on one SMP island — hardware shared memory, the
	// paper's baseline; it is HybridIslands(1).
	BackendSMP BackendKind = "smp"
	// BackendHybrid runs on a network of SMP islands: native sharing
	// inside each island, the LRC DSM between islands, at 2 islands
	// (clamped to the team size); HybridIslands(k) sets another count.
	BackendHybrid BackendKind = "hybrid"
)

// HybridIslands returns the hybrid backend kind pinned to k SMP islands,
// e.g. HybridIslands(2) == "hybrid:2". k is clamped to [1, Threads] at
// program creation, so HybridIslands(1) is an all-local degenerate (one
// big SMP) and any k ≥ Threads degenerates to one worker per island (a
// pure NOW). A non-positive k is plain BackendHybrid, the default count.
func HybridIslands(k int) BackendKind {
	if k <= 0 {
		return BackendHybrid
	}
	return BackendKind(fmt.Sprintf("hybrid:%d", k))
}

// parseBackendKind splits a kind into its base name and, for hybrid kinds,
// the encoded island count (0 when unspecified).
func parseBackendKind(k BackendKind) (base BackendKind, islands int, ok bool) {
	s := string(k)
	if s == "" {
		return BackendNOW, 0, true
	}
	if rest, found := strings.CutPrefix(s, string(BackendHybrid)); found {
		if rest == "" {
			return BackendHybrid, 0, true
		}
		if num, found := strings.CutPrefix(rest, ":"); found {
			v, err := strconv.Atoi(num)
			if err == nil && v > 0 {
				return BackendHybrid, v, true
			}
		}
		return "", 0, false
	}
	switch BackendKind(s) {
	case BackendNOW, BackendSMP:
		return BackendKind(s), 0, true
	}
	return "", 0, false
}

// threadOps is the part of Worker that TC exports unchanged: the clock,
// the directives that need no lock id, and typed shared-memory access.
type threadOps interface {
	// Now returns the worker's current virtual time.
	Now() sim.Time
	// Compute charges the virtual cost of flops floating-point operations.
	Compute(flops float64)

	// Barrier blocks until every worker of the team has arrived.
	Barrier()
	// SemaWait/SemaSignal are the paper's proposed P/V directives.
	SemaWait(sem int)
	SemaSignal(sem int)
	// Flush is the OpenMP flush directive the paper proposes to remove
	// (kept for the ablations at its full 2(n-1) message cost on the NOW;
	// a no-op on coherent hardware).
	Flush()

	// Typed shared-memory access.
	ReadF64(a Addr) float64
	WriteF64(a Addr, v float64)
	ReadI64(a Addr) int64
	WriteI64(a Addr, v int64)
	ReadI32(a Addr) int32
	WriteI32(a Addr, v int32)
	ReadBytes(a Addr, dst []byte)
	WriteBytes(a Addr, src []byte)
	ReadF64s(a Addr, dst []float64)
	WriteF64s(a Addr, src []float64)
	ReadI32s(a Addr, dst []int32)
	WriteI32s(a Addr, src []int32)
}

// Worker is one thread's handle on its backend: shared-memory access,
// synchronization, and the virtual clock. It is the runtime-level API the
// compiler emits calls against; TC embeds its threadOps part and wraps the
// rest with the directive-level API. A region's thread is a *dsm.Client on
// every backend; the NOW's master is node 0, which embeds its client.
type Worker interface {
	threadOps

	// ID returns the thread/processor number (0 = master).
	ID() int
	// NumProcs returns the team size.
	NumProcs() int
	// Charge advances the clock by an explicit duration.
	Charge(d sim.Time)
	// Poll yields the processor inside a busy-wait loop.
	Poll()

	// Acquire/Release bracket the lock with the given id (the calls the
	// compiler emits for a critical directive; see CriticalLockID).
	Acquire(lock int)
	Release(lock int)
	// CondWait atomically releases the lock, blocks on the condition
	// variable, and re-acquires the lock before returning; CondSignal
	// wakes one waiter and CondBroadcast all of them.
	CondWait(cond, lock int)
	CondSignal(cond, lock int)
	CondBroadcast(cond, lock int)
	// RunParallel forks the named registered region across the team and
	// joins (master only). It returns the threads' region results in
	// chunks whose concatenation is every result in thread order.
	RunParallel(region string, arg []byte) [][]byte
}

var (
	_ Worker = (*dsm.Client)(nil)
	_ Worker = (*dsm.Node)(nil)
)

// newSystem builds the dsm system a program of cfg.Threads threads runs
// on, and returns it with thread 0, the master. On islands, island i's
// node gets one client per thread of its static block, each with its own
// clock and the Platform's island-local synchronization costs; dsm runs
// the regions, the forks, the joins and the barriers on them.
func newSystem(cfg Config) (*dsm.System, Worker) {
	base, islands, ok := parseBackendKind(cfg.Backend)
	if !ok {
		panic(fmt.Sprintf("core: unknown backend %q", cfg.Backend))
	}
	if base == BackendNOW {
		sys := dsm.New(dsmConfig(cfg, cfg.Threads))
		return sys, sys.Node(0)
	}
	if base == BackendSMP {
		islands = 1
	} else if islands == 0 {
		islands = 2
	}
	islands = min(islands, cfg.Threads)
	sys := dsm.New(dsmConfig(cfg, islands))
	plat := sys.Platform()
	costs := dsm.ClientCosts{Lock: plat.SMPLock, Sema: plat.SMPSema, Cond: plat.SMPCond}
	clocks := make([]sim.Clock, cfg.Threads)
	var master Worker
	for i := 0; i < islands; i++ {
		lo, hi := StaticBlock(0, cfg.Threads, i, islands)
		for g := lo; g < hi; g++ {
			c := sys.Node(i).NewClient(&clocks[g], costs)
			if g == 0 {
				master = c
			}
		}
	}
	return sys, master
}
