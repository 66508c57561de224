package dsm

import (
	"fmt"
	"sync"

	"repro/internal/network"
	"repro/internal/sim"
)

// Protocol message types.
const (
	msgAcqReq        = iota + 1 // app   → lock manager: acquire request (carries vc)
	msgAcqFwd                   // manager/server → last holder: forwarded request
	msgLockGrant                // holder → requester: grant + consistency delta
	msgBarrArrive               // app → barrier manager: arrival + delta
	msgBarrDepart               // manager → app: departure + delta
	msgSemaSignal               // app → sema manager: V + delta
	msgSemaAck                  // manager → app: signal acknowledgment
	msgSemaWait                 // app → sema manager: P request (carries vc)
	msgSemaGrant                // manager → app: P granted + delta
	msgCondWait                 // app → lock manager: enqueue on condition variable
	msgCondWaitAck              // manager → app: wait registered (see CondWait)
	msgCondSignal               // app → lock manager: wake one waiter
	msgCondBroadcast            // app → lock manager: wake all waiters
	msgFlush                    // app → every node: pushed write notices (ablation)
	msgFlushAck                 // node → flusher
	msgFork                     // master → slave: run a parallel region
	msgJoin                     // slave → master: region finished + delta
	msgExit                     // master → slave: shut down
	msgGCSync                   // pressured node → quiet node: GC consensus push + delta (acqgc.go)
	msgGCFloor                  // piggybacked acquire-epoch floor announcement (acqgc.go)
	msgBatch                    // coalesced per-peer frame of typed sub-messages (wire.go)
	msgFetchReq                 // app → page home, squash creator or interval creator: the pages and diffs wanted of it (Client.fetch)
	msgFetchRep                 // source → app: the requested pages and diffs
)

// RegionFunc is the body of a parallel region, registered under a name on
// every node (the analogue of the compiler emitting one subroutine per
// region, Section 4.3.2). arg carries the serialized firstprivate
// environment broadcast at fork time.
type RegionFunc func(n *Node, arg []byte)

// Config describes one simulated NOW run.
type Config struct {
	// Procs is the number of workstations (the paper uses up to 8).
	Procs int
	// HeapBytes is the size of the global shared address space
	// (default 64 MiB).
	HeapBytes int
	// Platform overrides the calibrated cost model (default
	// sim.DefaultPlatform).
	Platform *sim.Platform
	// DisableGC turns off garbage collection of protocol metadata (see
	// gc.go), letting intervals, diffs, and twins accumulate for the whole
	// run — the pre-GC behaviour, kept for the metadata-accumulation
	// ablation.
	DisableGC bool
	// GCPressure is the collection threshold, in interval records a floor
	// would newly retire, of the one collector (gc.go) and both its
	// triggers: barrier/fork episodes, whose floor is the root's merged
	// clock, and the lock-manager consensus (acqgc.go) for programs that
	// synchronize without barriers, whose floor is the min of the
	// per-thread clocks carried in acquire/wait requests. 0 uses
	// DefaultGCPressure, scaled with the machine past 8 nodes; 1 collects at
	// every episode that retires anything. Negative turns the consensus
	// trigger off; episodes then use the default threshold.
	GCPressure int
	// BarrierFanin is the fan-in of the combining-tree barrier: each
	// interior node gathers this many children before passing the
	// combined arrival up (see barrier.go). 0 uses DefaultBarrierFanin
	// (8), which makes the tree exactly the old flat manager for runs of
	// at most 9 nodes.
	BarrierFanin int
	// MultiClient lets several application threads share each node (the
	// NOW-of-SMPs configuration: every node is an SMP island's protocol
	// delegate). It starts a reply router per node so tagged grants and
	// acknowledgments reach the exact thread that requested them; create
	// the per-thread handles with Node.NewClient.
	MultiClient bool
}

// GCThreshold resolves the collection threshold both triggers read. It
// counts retirable interval records SYSTEM-WIDE (a floor's component sum),
// which grows with the machine: a fixed threshold that fires after a few
// rounds of metadata at the paper's 8 workstations fires 16× as often at
// 128 nodes, and every consensus-triggered epoch costs a full round. The
// default therefore scales linearly past the paper's machine size; an
// explicit Config.GCPressure pins the trigger exactly, and ≤8-processor
// runs are untouched.
func (c Config) GCThreshold() int {
	if c.GCPressure > 0 {
		return c.GCPressure
	}
	if c.Procs > 8 {
		return DefaultGCPressure * (c.Procs / 8)
	}
	return DefaultGCPressure
}

// System is one simulated network of workstations running TreadMarks.
type System struct {
	cfg       Config
	plat      *sim.Platform
	sw        *network.Switch
	nodes     []*Node
	heapBytes int
	acq       *acqCoord   // the collector (acqgc.go); nil when GC is off
	purged    *homePurged // per-node purge-floor registry (flush gate)
	fanin     int         // resolved barrier tree fan-in

	regionsMu sync.Mutex
	regions   map[string]func(*Node, []byte) []byte

	heapMu   sync.Mutex
	heapNext Addr

	errOnce  sync.Once
	err      error
	done     chan struct{} // closed on abort or shutdown to unblock channel waits
	doneOnce sync.Once

	serverWG sync.WaitGroup
}

// New creates a system with cfg.Procs nodes and starts their protocol
// servers. Register parallel regions with Register, then call Run.
func New(cfg Config) *System {
	if cfg.Procs <= 0 {
		panic("dsm: Config.Procs must be positive")
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 64 << 20
	}
	if cfg.HeapBytes%PageSize != 0 {
		cfg.HeapBytes += PageSize - cfg.HeapBytes%PageSize
	}
	plat := cfg.Platform
	if plat == nil {
		plat = sim.DefaultPlatform()
	}
	s := &System{
		cfg:       cfg,
		plat:      plat,
		sw:        network.NewSwitch(cfg.Procs, plat.UDP),
		heapBytes: cfg.HeapBytes,
		regions:   make(map[string]func(*Node, []byte) []byte),
		done:      make(chan struct{}),
	}
	npages := cfg.HeapBytes / PageSize
	s.purged = newHomePurged(cfg.Procs)
	s.fanin = cfg.BarrierFanin
	if s.fanin <= 0 {
		s.fanin = DefaultBarrierFanin
	}
	if !cfg.DisableGC && cfg.Procs > 1 {
		s.acq = newAcqCoord(cfg.Procs, cfg.GCThreshold(), cfg.GCPressure >= 0)
	}
	for i := 0; i < cfg.Procs; i++ {
		n := &Node{
			sys:       s,
			id:        i,
			vc:        newVC(cfg.Procs),
			intervals: make([][]*interval, cfg.Procs),
			ivlBase:   make([]int, cfg.Procs),
			pages:     make([]*page, npages),
			knownVC:   make([]VectorClock, cfg.Procs),
			locks:     make(map[int]*lockState),
			semas:     make(map[int]*semaState),
			conds:     make(map[int]*condQueue),
			forkCh:    make(chan *network.Message, 8),
			joinCh:    make(chan *network.Message, cfg.Procs),
			selfReply: make(chan *network.Message, 16),
		}
		for j := range n.knownVC {
			n.knownVC[j] = newVC(cfg.Procs)
		}
		n.ep = s.sw.Endpoint(i, &n.clock)
		n.c0 = Client{n: n, clk: &n.clock}
		if cfg.MultiClient {
			n.router = newReplyRouter()
			s.serverWG.Add(1)
			go func(n *Node) {
				defer s.serverWG.Done()
				// The pump parses reply payloads to route them; a
				// malformed reply must abort the run like any other
				// protocol panic, not kill the process with the drain
				// loop (tripwire analyzer enforces this).
				defer s.recoverAbort(n)
				n.router.pump(n)
			}(n)
		}
		s.nodes = append(s.nodes, n)
	}
	// Combining-tree barrier: every node with children in the fan-in-ary
	// heap gets an arrival buffer (at fan-in ≥ procs-1 only node 0 has
	// children and the tree IS the old flat manager).
	for _, n := range s.nodes {
		if k := len(barrierChildren(n.id, cfg.Procs, s.fanin)); k > 0 {
			n.barrier = newBarrierMgr(k)
		}
	}
	for _, n := range s.nodes {
		s.serverWG.Add(1)
		go func(n *Node) {
			defer s.serverWG.Done()
			// Protocol panics on the server goroutine (including the GC
			// soundness tripwires, which the fork path runs in server
			// context) become a clean Run error like app-thread panics;
			// the abort shuts the switch down so every peer unwinds.
			defer s.recoverAbort(n)
			n.serve()
		}(n)
	}
	return s
}

// Procs returns the number of nodes.
func (s *System) Procs() int { return s.cfg.Procs }

// Platform returns the cost model in use.
func (s *System) Platform() *sim.Platform { return s.plat }

// Switch exposes the interconnect (for statistics).
func (s *System) Switch() *network.Switch { return s.sw }

// TrafficBreakdown splits one run's interconnect traffic into the three
// protocol cost categories the scaling study attributes walls to: page
// service (whole-page fetches from homes plus diff requests to interval
// creators), synchronization fan-in (locks, barriers, semaphores,
// condition variables, fork/join, and the flush ablation), and the GC
// consensus floor (acqgc.go's pushes to quiet nodes).
type TrafficBreakdown struct {
	PageMsgs, PageBytes int64
	SyncMsgs, SyncBytes int64
	GCMsgs, GCBytes     int64

	// The fault-wait slice of the time ledger, summed over nodes (see
	// NodeStats): a time share to read beside the byte shares above.
	FaultWait               sim.Time
	FaultRounds, FaultPages int64
	LockWait                sim.Time // the lock-wait slice likewise
	LockFaultWait           sim.Time // the part of FaultWait spent holding a lock
	LockFaultRounds         int64    // and of FaultRounds

	// The collector's validation wave, likewise: its time, and its traffic
	// — a sub-split of PageMsgs/PageBytes, not a fourth category.
	GCWait                  sim.Time
	GCWaveMsgs, GCWaveBytes int64
}

// Total returns the breakdown summed back into run totals (equal to the
// switch's Snapshot over the same window).
func (t TrafficBreakdown) Total() (messages, bytes int64) {
	return t.PageMsgs + t.SyncMsgs + t.GCMsgs,
		t.PageBytes + t.SyncBytes + t.GCBytes
}

// TrafficBreakdown categorizes the switch's per-message-type counters.
// Synchronization is the residue, so the three categories always sum to
// the switch totals even if a new message type is added without updating
// the category lists here.
func (s *System) TrafficBreakdown() TrafficBreakdown {
	var b TrafficBreakdown
	st := s.sw.Stats()
	for _, typ := range []int{msgFetchReq, msgFetchRep} {
		m, by := st.ByType(typ)
		b.PageMsgs += m
		b.PageBytes += by
	}
	for _, typ := range []int{msgGCSync, msgGCFloor} {
		m, by := st.ByType(typ)
		b.GCMsgs += m
		b.GCBytes += by
	}
	msgs, bytes := st.Snapshot()
	b.SyncMsgs = msgs - b.PageMsgs - b.GCMsgs
	b.SyncBytes = bytes - b.PageBytes - b.GCBytes
	t := s.TotalStats()
	b.FaultWait, b.FaultRounds, b.FaultPages = t.FaultWait, t.FaultRounds, t.FaultPages
	b.LockWait, b.LockFaultWait, b.LockFaultRounds = t.LockWait, t.LockFaultWait, t.LockFaultRounds
	b.GCWait, b.GCWaveMsgs, b.GCWaveBytes = t.GCWait, t.GCWaveMsgs, t.GCWaveBytes
	return b
}

// Frames returns the number of datagrams the run put on the wire.
// Messages − Frames (from the switch's Snapshot) is the number of
// datagrams per-peer frame coalescing eliminated.
func (s *System) Frames() int64 { return s.sw.Stats().FrameCount() }

// Done is closed when the system aborts or shuts down; external worker
// threads (a hybrid backend's island teams) select on it so they unwind
// alongside the nodes' own application threads.
func (s *System) Done() <-chan struct{} { return s.done }

// Register binds a parallel-region body to a name on every node. It must
// be called before Run forks the region. Registering models all nodes
// running the same compiled binary.
func (s *System) Register(name string, fn RegionFunc) {
	s.RegisterTail(name, func(n *Node, arg []byte) []byte { fn(n, arg); return nil })
}

// RegisterTail binds a region body whose result (an OpenMP reduction's
// partials) rides each slave's msgJoin behind the consistency trailer, for
// RunParallel to return in node order; an empty one adds no byte.
func (s *System) RegisterTail(name string, fn func(n *Node, arg []byte) []byte) {
	s.regionsMu.Lock()
	defer s.regionsMu.Unlock()
	if _, dup := s.regions[name]; dup {
		panic(fmt.Sprintf("dsm: region %q registered twice", name))
	}
	s.regions[name] = fn
}

func (s *System) region(name string) func(*Node, []byte) []byte {
	s.regionsMu.Lock()
	defer s.regionsMu.Unlock()
	fn, ok := s.regions[name]
	if !ok {
		panic(fmt.Sprintf("dsm: region %q not registered", name))
	}
	return fn
}

// Malloc allocates size bytes in the global shared address space and
// returns its address. Like Tmk_malloc, allocation is a master-side
// operation whose result is distributed to the slaves (here through fork
// arguments or the central allocator state). The returned block is 8-byte
// aligned and initially zero.
func (s *System) Malloc(size int) Addr {
	s.heapMu.Lock()
	defer s.heapMu.Unlock()
	return s.mallocLocked(size)
}

// MallocPage allocates size bytes starting on a fresh page, so that
// unrelated allocations never share a page (the usual defence against
// false sharing for the applications' main arrays). The alignment and the
// allocation happen under one lock acquisition: a concurrent Malloc
// cannot land between them and put the block mid-page.
func (s *System) MallocPage(size int) Addr {
	s.heapMu.Lock()
	defer s.heapMu.Unlock()
	if rem := int(s.heapNext) % PageSize; rem != 0 {
		s.heapNext += Addr(PageSize - rem)
	}
	return s.mallocLocked(size)
}

func (s *System) mallocLocked(size int) Addr {
	if size <= 0 {
		panic("dsm: Malloc with non-positive size")
	}
	a := s.heapNext
	size = (size + 7) &^ 7
	s.heapNext += Addr(size)
	if int(s.heapNext) > s.heapBytes {
		panic(fmt.Sprintf("dsm: shared heap exhausted (%d bytes requested beyond %d)", size, s.heapBytes))
	}
	return a
}

// abort records the first failure and tears the switch down so every
// blocked thread unwinds.
func (s *System) abort(err error) {
	s.errOnce.Do(func() {
		s.err = err
		s.doneOnce.Do(func() { close(s.done) })
		s.sw.Shutdown()
	})
}

// Shutdown releases every resource the system holds: it closes the done
// channel, shuts the switch down (idempotently — an abort may already have
// done both), and waits for the protocol servers and reply routers started
// by New to exit. It returns the run's first error, if any.
//
// Shutdown is idempotent and must be called once the system is quiescent:
// after Run has returned, or on a system that was never Run (a scheduler
// tearing down a constructed-but-unused backend — without this, the P
// server goroutines and router pumps started by New outlive the System).
// It must not be called while a Run is in flight.
func (s *System) Shutdown() error {
	s.doneOnce.Do(func() { close(s.done) })
	s.sw.Shutdown()
	s.serverWG.Wait()
	return s.err
}

// Close is Shutdown under the io.Closer-shaped name used by run-scoped
// `defer sys.Close()` teardown in the applications.
func (s *System) Close() error { return s.Shutdown() }

// Run executes master on node 0 while nodes 1..P-1 wait for forked
// regions. It returns when master returns (after shutting the slaves
// down), propagating the first panic from any node as an error.
func (s *System) Run(master func(n *Node)) error {
	var appWG sync.WaitGroup
	for _, n := range s.nodes[1:] {
		appWG.Add(1)
		go func(n *Node) {
			defer appWG.Done()
			defer s.recoverAbort(n)
			n.slaveLoop()
		}(n)
	}
	appWG.Add(1)
	go func() {
		n := s.nodes[0]
		defer appWG.Done()
		defer s.recoverAbort(n)
		master(n)
		// Shut the slaves down at the master's final virtual time.
		for i := 1; i < s.cfg.Procs; i++ {
			n.ep.Send(i, msgExit, network.ClassRequest, nil)
		}
	}()
	appWG.Wait()
	// Servers exit via the switch's down signal; router pumps select on
	// done (Shutdown no longer closes the inbox channels).
	s.doneOnce.Do(func() { close(s.done) })
	s.sw.Shutdown()
	s.serverWG.Wait()
	return s.err
}

func (s *System) recoverAbort(n *Node) {
	if r := recover(); r != nil {
		if _, isAbort := r.(abortError); isAbort || r == network.ErrDown {
			// Secondary victim of another node's failure — or a server
			// draining a straggler request after the run ended cleanly.
			return
		}
		s.abort(fmt.Errorf("dsm: node %d: %v", n.id, r))
	}
}

// Node returns node i (valid after New; used by the harness to read
// clocks and statistics after Run).
func (s *System) Node(i int) *Node { return s.nodes[i] }

// MaxClock returns the latest virtual time across all nodes: the parallel
// execution time of the run.
func (s *System) MaxClock() sim.Time {
	var m sim.Time
	for _, n := range s.nodes {
		if t := n.clock.Now(); t > m {
			m = t
		}
	}
	return m
}

// TotalStats aggregates the per-node protocol counters: event counts and
// the ProtoBytes gauge sum across nodes, while the Peak* fields take the
// per-node maximum (a peak is a bound on one workstation's memory, and
// node peaks need not be simultaneous, so summing them means nothing).
func (s *System) TotalStats() NodeStats {
	var t NodeStats
	for _, n := range s.nodes {
		st := n.Stats()
		t.ReadFaults += st.ReadFaults
		t.WriteFaults += st.WriteFaults
		t.ZeroFills += st.ZeroFills
		t.PageFetches += st.PageFetches
		t.DiffsCreated += st.DiffsCreated
		t.DiffsApplied += st.DiffsApplied
		t.DiffBytes += st.DiffBytes
		t.LockAcquires += st.LockAcquires
		t.LockLocal += st.LockLocal
		t.Barriers += st.Barriers
		t.SemaOps += st.SemaOps
		t.CondOps += st.CondOps
		t.Flushes += st.Flushes
		t.Interrupts += st.Interrupts
		t.FaultWait += st.FaultWait
		t.FaultRounds += st.FaultRounds
		t.FaultPages += st.FaultPages
		t.LockWait += st.LockWait
		t.LockFaultWait += st.LockFaultWait
		t.LockFaultRounds += st.LockFaultRounds
		t.GCEpisodes += st.GCEpisodes
		t.GCEpochs += st.GCEpochs
		t.GCAcqEpochs += st.GCAcqEpochs
		t.GCSyncPushes += st.GCSyncPushes
		t.GCSyncReverse += st.GCSyncReverse
		t.GCSyncRelays += st.GCSyncRelays
		t.GCDepartFloors += st.GCDepartFloors
		t.IntervalsRetired += st.IntervalsRetired
		t.TwinsCollected += st.TwinsCollected
		t.GCPagesValidated += st.GCPagesValidated
		t.GCPagesFlushed += st.GCPagesFlushed
		t.GCPurges += st.GCPurges
		t.GCWait += st.GCWait
		t.GCWaveMsgs += st.GCWaveMsgs
		t.GCWaveBytes += st.GCWaveBytes
		t.ProtoBytes += st.ProtoBytes
		if st.PeakProtoBytes > t.PeakProtoBytes {
			t.PeakProtoBytes = st.PeakProtoBytes
		}
		if st.PeakIntervalChain > t.PeakIntervalChain {
			t.PeakIntervalChain = st.PeakIntervalChain
		}
	}
	return t
}

// ProtoSummary reports the aggregate protocol-metadata footprint of a
// finished run, for the harness tables: retired interval records, the
// longest per-creator interval chain retained on any node, and the peak
// metadata bytes (records + diffs + twins) held on any node.
func (s *System) ProtoSummary() (retired, peakChain, peakBytes int64) {
	t := s.TotalStats()
	return t.IntervalsRetired, t.PeakIntervalChain, t.PeakProtoBytes
}

// GCStats is the collector's trigger and purge accounting, for the
// harness tables and ablations. Episodes counts GLOBAL events (every node
// walks the identical episode sequence, so it is a per-node maximum, not a
// sum); Epochs and AcqEpochs count the coordinator's announcements by
// trigger; PagesValidated and PagesFlushed sum the per-node purge outcomes.
type GCStats struct {
	Episodes       int64 // barrier/fork episodes the collector examined
	Epochs         int64 // episodes whose floor the root announced
	AcqEpochs      int64 // floors the lock-manager consensus announced (acqgc.go)
	PagesValidated int64 // stale copies brought current at collections
	PagesFlushed   int64 // stale copies discarded at collections
}

// GCSummary reports the collector's accounting. Epochs is the fraction of
// Episodes whose floor crossed the collection threshold behind an open
// gate. AcqEpochs is nonzero only when lock/semaphore pressure triggered
// the consensus.
func (s *System) GCSummary() GCStats {
	var g GCStats
	for _, n := range s.nodes {
		st := n.Stats()
		if st.GCEpisodes > g.Episodes {
			g.Episodes = st.GCEpisodes
		}
		g.PagesValidated += st.GCPagesValidated
		g.PagesFlushed += st.GCPagesFlushed
	}
	if s.acq != nil {
		g.AcqEpochs, g.Epochs = s.acq.announcedCounts()
	}
	return g
}
