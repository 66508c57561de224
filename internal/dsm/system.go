package dsm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

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
	_                           // unused: the type numbers after it stay fixed
	_                           // unused
	msgFetchReq                 // app → page home, squash creator or interval creator: the pages and diffs wanted of it (Client.fetchLocked)
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
	// gc.go), letting intervals and diffs accumulate for the whole
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
	// every episode that retires anything. Negative values are invalid
	// (New panics); DisableGC turns the collector off.
	GCPressure int
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
	acq       *acqCoord // the collector (acqgc.go); nil when GC is off
	fanin     int       // barrier tree fan-in: DefaultBarrierFanin outside tests
	seenCheck seenCheck // set only by tests, before Run: watches the lazy seenVC
	running   bool      // set by Run: a client added from now on is not a team thread
	threads   int       // the team size, counted by Run (Client.NumProcs)
	pool      bufPool   // the nodes' twins, page copies, diffs and wire payloads

	regionsMu sync.Mutex
	regions   map[string]func(*Client, []byte) []byte

	heapMu   sync.Mutex
	heapNext atomic.Int64 // the allocated extent: written under heapMu, read by every access check

	errOnce  sync.Once
	err      error
	done     chan struct{} // closed on abort or shutdown to unblock channel waits
	doneOnce sync.Once

	serverWG sync.WaitGroup
}

// New creates a system with cfg.Procs nodes and starts their protocol
// servers. Register parallel regions with Register, then call Run.
func New(cfg Config) *System { return newSystem(cfg, DefaultBarrierFanin) }

// newSystem is New with the barrier tree's fan-in, which tests narrow to
// build deep trees at small node counts.
func newSystem(cfg Config, fanin int) *System {
	if cfg.Procs <= 0 {
		panic("dsm: Config.Procs must be positive")
	}
	if cfg.GCPressure < 0 {
		panic("dsm: Config.GCPressure must not be negative")
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
		fanin:     fanin,
		regions:   make(map[string]func(*Client, []byte) []byte),
		done:      make(chan struct{}),
	}
	if !cfg.DisableGC && cfg.Procs > 1 {
		s.acq = newAcqCoord(cfg.Procs, cfg.GCThreshold())
	}
	for i := 0; i < cfg.Procs; i++ {
		n := &Node{
			sys:       s,
			id:        i,
			vc:        newVC(cfg.Procs),
			intervals: make([][]*interval, cfg.Procs),
			ivlBase:   make([]int, cfg.Procs),
			knownVC:   make([]VectorClock, cfg.Procs),
			locks:     make(map[int]*lockState),
			semas:     make(map[int]*syncQueue),
			conds:     make(map[int]*syncQueue),
			kids:      len(barrierChildren(i, cfg.Procs, fanin)),
			router:    newReplyRouter(),
		}
		for j := range n.knownVC {
			n.knownVC[j] = newVC(cfg.Procs)
		}
		n.ep = s.sw.Endpoint(i, &n.clock)
		n.thread = newClient(n, &n.clock, 0, ClientCosts{})
		s.nodes = append(s.nodes, n)
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

// heapPages is the shared heap's size in pages: the bound of every page id.
func (s *System) heapPages() int { return s.heapBytes / PageSize }

// Procs returns the number of nodes.
func (s *System) Procs() int { return s.cfg.Procs }

// Platform returns the cost model in use.
func (s *System) Platform() *sim.Platform { return s.plat }

// Switch exposes the interconnect (for statistics).
func (s *System) Switch() *network.Switch { return s.sw }

// Report is one run's accounting: the raw material of Table 2, the
// -scaling ledger columns and the GC tables. It is the zero value on a
// backend with no interconnect and no LRC metadata.
type Report struct {
	// Messages and Bytes count interconnect traffic during the run.
	// Frames counts the datagrams that actually crossed the wire. Every
	// DSM datagram carries one message, so on a DSM run it equals Messages.
	Messages, Bytes, Frames int64
	// Traffic split by protocol cost category: page service (the fetch
	// exchange of pages and diffs), synchronization (locks, barriers,
	// semaphores, condition variables, fork/join, flush) and GC consensus
	// (acqgc.go's pushes, relays and reverse deltas). Synchronization is the
	// residue, so the three pairs sum to Messages/Bytes even if a message
	// type is added without updating the category lists in System.Report;
	// the scaling-wall table uses them to name the binding cost.
	PageMsgs, PageBytes int64
	SyncMsgs, SyncBytes int64
	GCMsgs, GCBytes     int64
	// The time ledger summed over nodes. FaultWait / (procs × run time) is
	// the mean per-thread time share the scaling table prints beside the
	// byte shares; GCWaveMsgs/GCWaveBytes are part of PageMsgs/PageBytes.
	Ledger
	// GC accounting with GCStats's meanings: episodes the collector
	// examined (a per-node maximum), the floors each trigger announced,
	// and the per-page validate-vs-flush purge outcomes.
	GCEpisodes       int64
	GCEpochs         int64
	GCAcqEpochs      int64
	GCPagesValidated int64
	GCPagesFlushed   int64
	// Protocol-metadata footprint: interval records the collector
	// reclaimed, the longest per-creator interval list retained on any
	// node, and the largest metadata footprint (records + diffs + twins)
	// any node ever held.
	IntervalsRetired  int64
	PeakIntervalChain int64
	PeakProtoBytes    int64
	// Diffs encoded (one per closed interval and page it wrote), and how
	// many of them the modelled node paid to encode — served, forwarded on
	// a grant or forced by an invalidation; the rest were retired unpaid
	// or never needed. DiffsMerged: diffs served folded into an earlier
	// diff's reply — a creator's run of one page's diffs, causally adjacent
	// in one exchange, travels as one merged diff (mergeDiffs).
	DiffsCreated, DiffsPaid, DiffsMerged int64
}

// Report assembles the run's accounting from the switch's per-type
// counters, the nodes' statistics and the collector's summary.
func (s *System) Report() Report {
	var r Report
	st := s.sw.Stats()
	r.Messages, r.Bytes = st.Snapshot()
	r.Frames = st.FrameCount()
	for _, typ := range []int{msgFetchReq, msgFetchRep} {
		m, by := st.ByType(typ)
		r.PageMsgs += m
		r.PageBytes += by
	}
	r.GCMsgs, r.GCBytes = st.ByType(msgGCSync)
	r.SyncMsgs = r.Messages - r.PageMsgs - r.GCMsgs
	r.SyncBytes = r.Bytes - r.PageBytes - r.GCBytes
	t := s.TotalStats()
	r.Ledger = t.Ledger
	r.IntervalsRetired, r.PeakIntervalChain, r.PeakProtoBytes = t.IntervalsRetired, t.PeakIntervalChain, t.PeakProtoBytes
	r.DiffsCreated, r.DiffsPaid, r.DiffsMerged = t.DiffsCreated, t.DiffsPaid, t.DiffsMerged
	g := s.GCSummary()
	r.GCEpisodes, r.GCEpochs, r.GCAcqEpochs = g.Episodes, g.Epochs, g.AcqEpochs
	r.GCPagesValidated, r.GCPagesFlushed = g.PagesValidated, g.PagesFlushed
	return r
}

// Register binds a parallel-region body to a name on every node. It must
// be called before Run forks the region. Registering models all nodes
// running the same compiled binary. The body runs on the node: it is for
// systems without island teams.
func (s *System) Register(name string, fn RegionFunc) {
	s.RegisterTail(name, func(c *Client, arg []byte) []byte { fn(c.n, arg); return nil })
}

// RegisterTail binds a region body to a name, to run on every thread: a
// node's default client, or each client of its team. The body's result
// (an OpenMP reduction's partials) rides each slave's msgJoin behind the
// consistency trailer, for RunParallel to return in node order; an empty
// one adds no byte.
func (s *System) RegisterTail(name string, fn func(c *Client, arg []byte) []byte) {
	s.regionsMu.Lock()
	defer s.regionsMu.Unlock()
	if _, dup := s.regions[name]; dup {
		panic(fmt.Sprintf("dsm: region %q registered twice", name))
	}
	s.regions[name] = fn
}

func (s *System) region(name string) func(*Client, []byte) []byte {
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
func (s *System) Malloc(size int) Addr { return s.malloc(size, 8) }

// MallocPage allocates size bytes starting on a fresh page, so that
// unrelated allocations never share a page (the usual defence against
// false sharing for the applications' main arrays). The alignment and the
// allocation happen under one lock acquisition: a concurrent Malloc
// cannot land between them and put the block mid-page.
func (s *System) MallocPage(size int) Addr { return s.malloc(size, PageSize) }

// malloc allocates size bytes, rounded up to 8, at the next multiple of
// align (the extent is always a multiple of 8).
func (s *System) malloc(size, align int) Addr {
	if size <= 0 {
		panic("dsm: Malloc with non-positive size")
	}
	s.heapMu.Lock()
	defer s.heapMu.Unlock()
	a := int(s.heapNext.Load())
	if rem := a % align; rem != 0 {
		a += align - rem
	}
	size = (size + 7) &^ 7
	if a+size > s.heapBytes {
		panic(fmt.Sprintf("dsm: shared heap exhausted (%d bytes requested beyond %d)", size, s.heapBytes))
	}
	s.heapNext.Store(int64(a + size))
	return Addr(a)
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

// Close releases every resource the system holds: it closes the done
// channel, shuts the switch down (idempotently — an abort may already have
// done both), and waits for the protocol servers started by New to exit.
// It returns the run's first error, if any.
//
// Close is idempotent and must be called once the system is quiescent:
// after Run has returned, or on a system that was never Run (a scheduler
// tearing down a constructed-but-unused backend — without this, the P
// server goroutines started by New outlive the System).
// It must not be called while a Run is in flight.
func (s *System) Close() error {
	s.doneOnce.Do(func() { close(s.done) })
	s.sw.Shutdown()
	s.serverWG.Wait()
	return s.err
}

// Run executes master on node 0 while nodes 1..P-1 wait for forked
// regions, and each island-mate for its node's forks. It returns when
// master returns (after shutting the slaves and the mates down),
// propagating the first panic from any thread as an error. It numbers the
// team first: each node's team in node order, or its default thread where
// it has none.
func (s *System) Run(master func(n *Node)) error {
	s.running = true
	s.threads = 0
	for _, n := range s.nodes {
		team := n.team
		if len(team) == 0 {
			team = []*Client{&n.thread}
		}
		for _, c := range team {
			c.id = s.threads
			s.threads++
		}
	}
	var appWG sync.WaitGroup
	start := func(n *Node, thread func()) {
		appWG.Add(1)
		go func() {
			defer appWG.Done()
			defer s.recoverAbort(n)
			thread()
		}()
	}
	for _, n := range s.nodes {
		for _, c := range n.mates() {
			start(n, c.mateLoop)
		}
	}
	for _, n := range s.nodes[1:] {
		start(n, n.slaveLoop)
	}
	n0 := s.nodes[0]
	start(n0, func() {
		master(n0)
		n0.exitTeam()
		// Shut the slaves down at the master's final virtual time.
		for i := 1; i < s.cfg.Procs; i++ {
			n0.ep.Send(i, msgExit, network.ClassRequest, nil)
		}
	})
	appWG.Wait()
	// Servers exit via the switch's down signal.
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

// MaxClock returns the latest virtual time across all nodes and their
// teams' threads: the parallel execution time of the run.
func (s *System) MaxClock() sim.Time {
	var m sim.Time
	for _, n := range s.nodes {
		m = max(m, n.clock.Now())
		for _, c := range n.team {
			m = max(m, c.clk.Now())
		}
	}
	return m
}

// statFields are NodeStats's counters, embedded Ledger's included: every
// field of int64 kind (sim.Time is one).
var statFields = func() (fs []reflect.StructField) {
	for _, f := range reflect.VisibleFields(reflect.TypeOf(NodeStats{})) {
		if f.Type.Kind() == reflect.Int64 {
			fs = append(fs, f)
		}
	}
	return fs
}()

// TotalStats aggregates the per-node protocol counters without naming
// them, so a counter added later cannot be left out: event counts and the
// ProtoBytes gauge sum across nodes, while the Peak* fields take the
// per-node maximum (a peak is a bound on one workstation's memory, and
// node peaks need not be simultaneous, so summing them means nothing).
func (s *System) TotalStats() NodeStats {
	var t NodeStats
	tv := reflect.ValueOf(&t).Elem()
	for _, n := range s.nodes {
		sv := reflect.ValueOf(n.Stats())
		for _, f := range statFields {
			dst, v := tv.FieldByIndex(f.Index), sv.FieldByIndex(f.Index).Int()
			if !strings.HasPrefix(f.Name, "Peak") {
				dst.SetInt(dst.Int() + v)
			} else if v > dst.Int() {
				dst.SetInt(v)
			}
		}
	}
	return t
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
