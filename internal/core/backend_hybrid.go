package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dsm"
	"repro/internal/sim"
)

// hybridBackend executes an OpenMP team on a NOW of SMPs: the clusters
// that succeeded the paper's testbed were networks of multiprocessor
// nodes, and the SMP-aware TreadMarks follow-on work showed that
// exploiting intra-node hardware sharing changes the traffic and speedup
// story without changing one line of application source. The backend maps
// `procs` workers onto `k` SMP islands:
//
//   - Intra-island, threads share their island's memory natively: typed
//     accesses hit the island delegate's page copies directly, and
//     synchronization satisfied inside the island (a lock handed between
//     two island threads, a local barrier gather) charges the Platform's
//     bus-scale SMP* constants. Zero messages.
//   - Inter-island, one dsm.Node per island holds the island's single
//     seat in the LRC protocol: page faults, diff traffic, barrier
//     arrivals, lock tokens, semaphore and condition-variable managers
//     all run the unmodified TreadMarks machinery of internal/dsm, with
//     per-thread reply tags (dsm.Client) routing grants back to the
//     island thread that asked.
//
// Degenerate limits (pinned by tests): islands=1 is one big SMP and is
// BackendSMP — zero traffic, no ledger, the SMP cost model's clocks;
// islands=procs is one thread per island — the NOW's message pattern
// exactly.
//
// An island's memory accesses and flushes are serialized by the delegate
// node's engine lock (one protocol engine per island, as in the
// SMP-TreadMarks systems), which dsm takes for every client NewClient
// adds; it is held only across operations whose blocking can be resolved
// entirely by remote protocol servers (faults, flush), never across waits
// that an island-mate must resolve (locks, semaphores, condition
// variables, barriers), which is what keeps the island deadlock-free.
type hybridBackend struct {
	sys     *dsm.System
	procs   int
	nisl    int
	islands []*hybridIsland
	workers []*hybridWorker
	wg      sync.WaitGroup

	regionsMu sync.Mutex
	regions   map[string]func(w Worker, arg []byte) []byte
}

// hybridIsland is one SMP node of the simulated cluster.
type hybridIsland struct {
	id     int
	node   *dsm.Node
	lo, hi int // global worker ids [lo, hi)

	// Local barrier (the intra-island gather/release around the DSM
	// barrier's inter-island phase).
	bmu    sync.Mutex
	barN   int
	barMax sim.Time
}

func (isl *hybridIsland) size() int { return isl.hi - isl.lo }

// hybridFork is one dispatched region execution.
type hybridFork struct {
	fn  func(w Worker, arg []byte) []byte
	arg []byte
	at  sim.Time // virtual dispatch time at the island
}

// hybridJoin reports one worker's region completion (or panic).
type hybridJoin struct {
	t    sim.Time
	tail []byte
	err  interface{}
}

// hybridWorker is one OpenMP thread; it implements Worker. Worker
// `isl.lo` of each island runs on the island delegate's application
// goroutine (the dsm fork target); the rest are persistent goroutines fed
// through forkCh. Its dsm.Client, on the island delegate and charging the
// worker's own clock, supplies the clock, shared-memory access, flush and
// synchronization methods: the client layer satisfies intra-island lock,
// semaphore and condition cases locally (token caching, local handoff
// queues, banked signal timestamps) at bus-scale cost and engages the wire
// protocol only across islands. Valid-page accesses charge nothing —
// intra-island sharing is hardware sharing.
type hybridWorker struct {
	*dsm.Client
	b       *hybridBackend
	isl     *hybridIsland
	id      int // global thread id
	clock   sim.Clock
	forkCh  chan hybridFork
	joinCh  chan hybridJoin
	release chan sim.Time // the island barrier's departure time, while parked in it
}

// hybridAbortPanic unwinds a worker blocked in a local structure when the
// system is shutting down.
type hybridAbortPanic struct{}

func (hybridAbortPanic) Error() string { return "hybrid: run aborted" }

func newHybridBackend(cfg Config, islands int) *hybridBackend {
	procs := cfg.Threads
	if islands == 0 {
		islands = 2
	}
	islands = min(islands, procs)
	b := &hybridBackend{
		procs:   procs,
		nisl:    islands,
		regions: make(map[string]func(Worker, []byte) []byte),
		sys:     dsm.New(dsmConfig(cfg, islands)),
	}
	plat := b.sys.Platform()
	costs := dsm.ClientCosts{Lock: plat.SMPLock, Sema: plat.SMPSema, Cond: plat.SMPCond}
	for i := 0; i < islands; i++ {
		lo, hi := StaticBlock(0, procs, i, islands)
		isl := &hybridIsland{id: i, node: b.sys.Node(i), lo: lo, hi: hi}
		b.islands = append(b.islands, isl)
		for g := lo; g < hi; g++ {
			w := &hybridWorker{
				b:       b,
				isl:     isl,
				id:      g,
				forkCh:  make(chan hybridFork, 1),
				joinCh:  make(chan hybridJoin, 1),
				release: make(chan sim.Time, 1),
			}
			w.Client = isl.node.NewClient(&w.clock, costs)
			b.workers = append(b.workers, w)
		}
	}
	return b
}

func (b *hybridBackend) Procs() int               { return b.procs }
func (b *hybridBackend) Islands() int             { return b.nisl }
func (b *hybridBackend) Malloc(size int) Addr     { return b.sys.Malloc(size) }
func (b *hybridBackend) MallocPage(size int) Addr { return b.sys.MallocPage(size) }

// Register stores the region body and installs an island dispatcher for
// it in the DSM: a fork reaches each island once, and the dispatcher
// spreads it across the island's threads.
func (b *hybridBackend) Register(name string, fn func(w Worker, arg []byte) []byte) {
	b.regionsMu.Lock()
	if _, dup := b.regions[name]; dup {
		b.regionsMu.Unlock()
		panic(fmt.Sprintf("hybrid: region %q registered twice", name))
	}
	b.regions[name] = fn
	b.regionsMu.Unlock()
	b.sys.RegisterTail(name, func(n *dsm.Node, arg []byte) []byte {
		return b.runIsland(n, name, arg)
	})
}

func (b *hybridBackend) region(name string) func(Worker, []byte) []byte {
	b.regionsMu.Lock()
	defer b.regionsMu.Unlock()
	fn, ok := b.regions[name]
	if !ok {
		panic(fmt.Sprintf("hybrid: region %q not registered", name))
	}
	return fn
}

// runIsland executes one region on one island: it runs on the island
// delegate's application goroutine (node 0: the master worker's own
// goroutine; other islands: the dsm slave loop), dispatches the island's
// remaining threads, runs the first thread's share inline, and joins. The
// island's completion time (delegate clock) and its threads' contributions
// (concatenated in thread order) ride the dsm join back to the master.
func (b *hybridBackend) runIsland(n *dsm.Node, name string, arg []byte) []byte {
	isl := b.islands[n.ID()]
	fn := b.region(name)
	first := b.workers[isl.lo]
	at := n.Now() // fork arrival (slave islands), incl. any fork-GC pause
	if t := first.clock.Now(); t > at {
		at = t // island 0: the master's clock is the fork time
	}
	for _, w := range b.workers[isl.lo+1 : isl.hi] {
		select {
		case w.forkCh <- hybridFork{fn: fn, arg: arg, at: at}:
		case <-b.sys.Done():
			panic(hybridAbortPanic{})
		}
	}
	first.clock.AdvanceTo(at)
	tail := fn(first, arg)
	maxT := first.clock.Now()
	for _, w := range b.workers[isl.lo+1 : isl.hi] {
		var j hybridJoin
		select {
		case j = <-w.joinCh:
		case <-b.sys.Done():
			panic(hybridAbortPanic{})
		}
		if j.err != nil {
			panic(j.err)
		}
		if j.t > maxT {
			maxT = j.t
		}
		tail = append(tail, j.tail...)
	}
	first.clock.AdvanceTo(maxT)
	n.AdvanceClockTo(maxT)
	return tail
}

// loop runs a non-first island worker: wait for a dispatched region, run
// it, report the finish time, repeat until the backend shuts down.
func (w *hybridWorker) loop() {
	for {
		select {
		case f, ok := <-w.forkCh:
			if !ok {
				return
			}
			w.runRegion(f)
		case <-w.b.sys.Done():
			return
		}
	}
}

func (w *hybridWorker) runRegion(f hybridFork) {
	var tail []byte
	defer func() {
		w.joinCh <- hybridJoin{t: w.clock.Now(), tail: tail, err: recover()}
	}()
	w.clock.AdvanceTo(f.at)
	tail = f.fn(w, f.arg)
}

// Run executes master as worker 0 on the master island's delegate
// goroutine; the remaining workers run as persistent goroutines fed by
// the island dispatchers.
func (b *hybridBackend) Run(master func(w Worker)) error {
	err := b.sys.Run(func(n0 *dsm.Node) {
		for _, isl := range b.islands {
			for _, w := range b.workers[isl.lo+1 : isl.hi] {
				b.wg.Add(1)
				go func(w *hybridWorker) {
					defer b.wg.Done()
					w.loop()
				}(w)
			}
		}
		master(b.workers[0])
		for _, isl := range b.islands {
			for _, w := range b.workers[isl.lo+1 : isl.hi] {
				close(w.forkCh)
			}
		}
	})
	// On a clean run the closed fork channels end the worker loops; on an
	// abort the system's done channel (closed before sys.Run returns)
	// does. Either way every worker goroutine exits.
	b.wg.Wait()
	return err
}

// MaxClock returns the latest virtual time across the team and the island
// delegates (whose clocks carry protocol-server interrupt service).
func (b *hybridBackend) MaxClock() sim.Time {
	m := b.sys.MaxClock()
	for _, w := range b.workers {
		if t := w.clock.Now(); t > m {
			m = t
		}
	}
	return m
}

func (b *hybridBackend) Report() dsm.Report { return b.sys.Report() }

// Close shuts the island DSM down and waits for any worker goroutines.
// The workers only exist inside Run (which already reaps them), but the
// island delegates' protocol servers are started at construction and
// would outlive a never-Run backend.
func (b *hybridBackend) Close() error {
	err := b.sys.Shutdown()
	b.wg.Wait()
	return err
}

// ---------------------------------------------------------------------
// Worker: identity, fork and barrier; the embedded dsm.Client does the rest.
// ---------------------------------------------------------------------

func (w *hybridWorker) ID() int       { return w.id }
func (w *hybridWorker) NumProcs() int { return w.b.procs }
func (w *hybridWorker) Poll()         { runtime.Gosched() }

// RunParallel forks the named region across the cluster: one dsm fork per
// island, each island's dispatcher spreading it over its threads. The
// master charges the Platform's SMPFork dispatch cost; the DSM fork
// messages carry the inter-island cost, the joins each island's
// contributions (islands are blocks of threads: island order is thread order).
func (w *hybridWorker) RunParallel(region string, arg []byte) [][]byte {
	if w.id != 0 {
		panic("hybrid: RunParallel must be called by the master (worker 0)")
	}
	w.clock.Advance(w.b.sys.Platform().SMPFork)
	return w.Client.RunParallel(region, arg)
}

// Barrier is two-level: gather the island's threads locally, let the last
// arrival cross the inter-island DSM barrier on the island's behalf, then
// release the island at the global departure time plus the local
// broadcast cost.
func (w *hybridWorker) Barrier() {
	isl := w.isl
	if isl.size() == 1 {
		w.Client.Barrier()
		return
	}
	isl.bmu.Lock()
	if t := w.clock.Now(); t > isl.barMax {
		isl.barMax = t
	}
	isl.barN++
	if isl.barN < isl.size() {
		isl.bmu.Unlock()
		select {
		case t := <-w.release:
			w.clock.AdvanceTo(t)
		case <-w.b.sys.Done():
			panic(hybridAbortPanic{})
		}
		return
	}
	// Last arrival: run the inter-island phase. Every other island thread
	// is parked here, so the delegate node is quiescent for this client.
	localMax := isl.barMax
	isl.barN = 0
	isl.barMax = 0
	isl.bmu.Unlock()
	w.clock.AdvanceTo(localMax)
	w.Client.Barrier()
	w.clock.Advance(w.b.sys.Platform().SMPBarrier)
	depart := w.clock.Now()
	for _, o := range w.b.workers[isl.lo:isl.hi] {
		if o != w {
			o.release <- depart
		}
	}
}

var _ Worker = (*hybridWorker)(nil)
var _ Backend = (*hybridBackend)(nil)
