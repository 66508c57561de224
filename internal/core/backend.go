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
// against Backend and Worker, and an application written against the
// core API runs on any backend selected through Config.Backend.
//
// Three backend kinds, two implementations:
//
//	BackendNOW    — TreadMarks on the simulated network of workstations
//	                (internal/dsm, backend_dsm.go): the paper's system.
//	BackendHybrid — a NOW of SMPs (backend_hybrid.go): the team mapped
//	                onto k SMP islands, intra-island synchronization and
//	                memory at bus scale, inter-island coherence through
//	                the LRC DSM with one dsm.Node per island.
//	BackendSMP    — the hybrid backend's one-island case: one SMP, the
//	                hardware shared-memory machine OpenMP was born on and
//	                the paper's implicit baseline, as a one-node cluster
//	                whose threads share its memory (Hu, Lu, Cox and
//	                Zwaenepoel, IPPS '99). Zero interconnect traffic.

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

// Worker is one thread's handle on its backend: shared-memory access,
// synchronization, and the virtual clock. It is the runtime-level API the
// compiler emits calls against; TC wraps it with the directive-level API.
// *dsm.Node implements Worker directly on the NOW backend.
type Worker interface {
	// ID returns the thread/processor number (0 = master).
	ID() int
	// NumProcs returns the team size.
	NumProcs() int
	// Now returns the worker's current virtual time.
	Now() sim.Time
	// Compute charges the virtual cost of flops floating-point operations.
	Compute(flops float64)
	// Charge advances the clock by an explicit duration.
	Charge(d sim.Time)
	// Poll yields the processor inside a busy-wait loop.
	Poll()

	// Barrier blocks until every worker of the team has arrived.
	Barrier()
	// Acquire/Release bracket the lock with the given id (the calls the
	// compiler emits for a critical directive; see CriticalLockID).
	Acquire(lock int)
	Release(lock int)
	// SemaWait/SemaSignal are the paper's proposed P/V directives.
	SemaWait(sem int)
	SemaSignal(sem int)
	// CondWait atomically releases the lock, blocks on the condition
	// variable, and re-acquires the lock before returning; CondSignal
	// wakes one waiter and CondBroadcast all of them.
	CondWait(cond, lock int)
	CondSignal(cond, lock int)
	CondBroadcast(cond, lock int)
	// Flush is the OpenMP flush directive the paper proposes to remove
	// (kept for the ablations; a no-op on coherent hardware).
	Flush()
	// RunParallel forks the named registered region across the team and
	// joins (master only). It returns the workers' region results (see
	// Backend.Register) in chunks whose concatenation is every result in
	// thread order.
	RunParallel(region string, arg []byte) [][]byte

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

// Backend is one execution substrate for an OpenMP program: a shared
// address space, a team of workers, region registration and fork/join,
// and the run-level accounting the harness reports.
type Backend interface {
	// Procs returns the team size.
	Procs() int
	// Malloc allocates size bytes (8-byte aligned, zeroed) in the shared
	// address space; MallocPage starts the block on a page boundary. An
	// access past the last block panics.
	Malloc(size int) Addr
	MallocPage(size int) Addr
	// Register binds a parallel-region body to a name on every worker. The
	// body's result is the worker's contribution (its reduction partials),
	// handed back through the worker's join.
	Register(name string, fn func(w Worker, arg []byte) []byte)
	// Run executes master on worker 0 while the rest of the team waits
	// for forked regions, returning the first worker failure.
	Run(master func(w Worker)) error
	// MaxClock returns the latest virtual time across the team.
	MaxClock() sim.Time
	// Report returns the run's accounting so far: traffic, its cost
	// categories, the time ledger, and the collector's and metadata's
	// counters (the zero value on hardware shared memory).
	Report() dsm.Report
	// Close releases every resource the backend holds — DSM nodes, island
	// delegates, network endpoints and protocol servers — and waits for
	// their goroutines to exit. It is idempotent, must be called once the
	// backend is quiescent (after Run has returned, or on a backend that
	// was never Run), and returns the run's first error. The Report
	// remains readable after Close.
	Close() error
}

// The NOW worker is the DSM node itself.
var _ Worker = (*dsm.Node)(nil)
