// Package core is the OpenMP runtime of the paper: the target that the
// OpenMP-to-TreadMarks compiler (Section 4.3) emits code against. A
// Program holds the shared-data layout and the registered parallel
// regions; WHERE it runs is a backend (see backend.go) selected
// through Config.Backend — TreadMarks on the simulated network of
// workstations (the paper's system), one SMP (hardware shared memory, the
// baseline OpenMP was designed for), or a network of SMPs. One
// application source written against this API runs unchanged on each.
//
// The programming model follows the paper's two proposed modifications to
// the OpenMP standard (Section 3):
//
//  1. Variables default to PRIVATE. Anything shared must be explicitly
//     allocated in the shared address space with Program.Shared /
//     SharedPage (the analogue of the compiler relocating variables marked
//     `shared` into DSM memory). Go locals inside a region body are
//     naturally private; firstprivate values are copied to the slaves in
//     the fork message via Args.
//
//  2. flush is replaced by semaphores and condition variables
//     (TC.SemaWait/SemaSignal, TC.CondWait/CondSignal/CondBroadcast).
//     Flush is still available (TC.Flush) so its cost can be measured —
//     the paper's Section 3.2.3 ablation.
//
// Directives map to methods:
//
//	parallel            Program.Parallel / RegisterRegion
//	parallel do         Program.ParallelDo / RegisterDo
//	critical(name)      TC.Critical
//	barrier             TC.Barrier
//	reduction(+:x)      Program.NewReduction + Reduction.Reduce, folded at
//	                    the join (+ arrays, the paper's extension, via
//	                    NewArrayReduction)
//	firstprivate        Args passed at fork
//	threadprivate       TC.Threadprivate
package core

import (
	"hash/fnv"
	"sync"

	"repro/internal/dsm"
	"repro/internal/sim"
)

// Config describes an OpenMP execution environment.
type Config struct {
	// Threads is the number of OpenMP threads (== workstations on the NOW
	// backend, threads of one island on the SMP backend).
	Threads int
	// HeapBytes bounds the shared address space (default 64 MiB): a
	// Malloc past it panics. Every backend sizes its page table by it and
	// materializes a page only when a thread first touches it; an access
	// past the last allocation panics whatever the bound.
	HeapBytes int
	// Platform overrides the cost model.
	Platform *sim.Platform
	// Backend selects the execution substrate; the zero value is
	// BackendNOW, the paper's network of workstations.
	Backend BackendKind
	// DSM carries the protocol knobs by value — DisableGC, GCPressure
	// (see dsm.Config); the SMP backend's one node has no peer to collect
	// with. The backend fills Procs, HeapBytes and Platform itself from the
	// fields above; the hybrid and SMP backends add one dsm.Client per
	// island thread (dsm.Node.NewClient), which any node accepts.
	DSM dsm.Config
}

// dsmConfig assembles the dsm.Config of a program's system.
func dsmConfig(cfg Config, procs int) dsm.Config {
	c := cfg.DSM
	c.Procs = procs
	c.HeapBytes = cfg.HeapBytes
	c.Platform = cfg.Platform
	return c
}

// Program is one OpenMP program instance: shared-data layout, registered
// parallel regions, and the backend that executes them.
type Program struct {
	sys     *dsm.System
	master  Worker // thread 0
	threads int

	mu       sync.Mutex
	reds     []*redVar           // reduction variables, by id
	tpStores []map[string][]byte // threadprivate memory, one map per thread
}

// NewProgram creates a program for cfg.Threads threads on the configured
// backend.
func NewProgram(cfg Config) *Program {
	if cfg.Threads <= 0 {
		panic("core: Config.Threads must be positive")
	}
	p := &Program{
		threads:  cfg.Threads,
		tpStores: make([]map[string][]byte, cfg.Threads),
	}
	p.sys, p.master = newSystem(cfg)
	for i := range p.tpStores {
		p.tpStores[i] = make(map[string][]byte)
	}
	return p
}

// Shared allocates size bytes of shared memory (8-byte aligned): the
// explicit `shared` declaration of the paper's private-by-default model.
func (p *Program) Shared(size int) Addr { return p.sys.Malloc(size) }

// SharedPage allocates shared memory starting on a page boundary, keeping
// unrelated shared variables from false-sharing a page on the NOW backend
// (a layout no-op on hardware shared memory).
func (p *Program) SharedPage(size int) Addr { return p.sys.MallocPage(size) }

// MallocPage is SharedPage under the allocator-interface name shared with
// dsm.System, so application layout helpers accept a Program and a DSM
// system interchangeably.
func (p *Program) MallocPage(size int) Addr { return p.sys.MallocPage(size) }

// Run executes the sequential master program; inside it, Parallel and
// ParallelDo fork the registered regions across the team. It returns the
// first thread failure, if any.
func (p *Program) Run(master func(m *MC)) error {
	return p.sys.Run(func(*dsm.Node) {
		master(&MC{TC: TC{threadOps: p.master, p: p, w: p.master, threads: p.threads}})
	})
}

// Elapsed returns the parallel execution time: the maximum virtual clock
// across the team after Run completes.
func (p *Program) Elapsed() sim.Time { return p.sys.MaxClock() }

// Report returns the run's accounting so far (see dsm.Report; the zero
// value on the SMP backend, whose one node moves no message and books no
// ledger). A phase's cost is the difference of two
// Reports taken around it.
func (p *Program) Report() dsm.Report { return p.sys.Report() }

// Close releases the program's resources (dsm.System.Close): its protocol
// servers, which otherwise outlive the program — forever, if it was
// constructed but never Run. It must be called once the program is
// quiescent; it is idempotent, returns the run's first error, and results
// and statistics remain readable afterwards.
func (p *Program) Close() error { return p.sys.Close() }

// criticalLock maps a critical-section name to a lock id. Named critical
// sections with the same name share one lock program-wide, per the
// standard; the id space is partitioned away from user semaphore ids.
func criticalLock(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32()&0x3fffff) | 1<<26
}

// CriticalLockID exposes the lock id behind a named critical section, for
// code that brackets a critical region through lower-level Worker calls
// (the compiler emits exactly this mapping for the critical directive).
func CriticalLockID(name string) int { return criticalLock(name) }
