package dsm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/network"
	"repro/internal/sim"
)

// Node is one simulated workstation: an application thread (the goroutine
// running user code), a protocol server goroutine (the analogue of
// TreadMarks' SIGIO handler), a private copy of the paged shared address
// space, and a virtual clock.
//
// The application thread is the node's embedded default Client (tag 0,
// charging the node's own clock), so every Client operation — typed
// access, synchronization, fork/join, the clock — is a Node method too.
// An SMP island sharing the node among a team of threads adds Clients
// with their own clocks and reply tags (NewClient), and the node runs its
// regions, forks, joins and barriers on that team (fork.go, barrier.go).
// A node's state is
// guarded by mu; application threads release mu whenever they block on
// the network so the server can keep serving remote requests. One unwind
// rule keeps an abort an ordinary run error: a ...Locked function that
// releases mu re-takes it on every way out, a panic's too (relockOnPanic),
// and every caller that takes mu around one releases it with a deferred
// Unlock.
type Node struct {
	thread // the default client: the classic single application thread

	sys   *System
	id    int
	clock sim.Clock
	ep    *network.Endpoint

	router  replyRouter // routes replies and handoffs to the client awaiting them
	nextTag uint32      // reply-tag allocator for NewClient (under mu)
	team    []*Client   // the clients added before Run, which run every region (fork.go)

	mu        sync.Mutex
	vc        VectorClock
	intervals [][]*interval // [creator], gap-free, intervals[c][i].seq == ivlBase[c]+i
	ivlBase   []int         // [creator] seq of the oldest retained interval (see gc.go)
	gcFreeVC  VectorClock   // floor of the last collection epoch; freed at the next one (gc.go)
	gcPurgeVC VectorClock   // merged floor of every collection this node has begun (its claim)
	gcAcqOwed VectorClock   // floor whose purge left pages waiting on lagging homes; nil: none
	gcAcqLag  []int         // the homes those pages wait for (acqEpochLocked)
	dirty     []*page       // pages twinned in the open interval
	gcPages   []*page       // pages that may hold missing notices or twins (GC work list)
	pages     []*page       // [PageID]; grows and makes entries lazily (pageFor)
	knownVC   []VectorClock // sound lower bound of what each node has seen
	episode   int64         // barrier departures and forks taken here (group.go)

	// Scratch under mu: makeDiff's and handleFetchReq's merged diffs, the
	// record clock decodeRecordsLocked rebuilds, the sender clock
	// takeTrailerLocked decodes, deltaForLocked's result and the departure
	// wave (forwardDeparturesLocked).
	diffBuf   []byte
	vcBuf     VectorClock
	senderBuf VectorClock
	deltaBuf  []*interval
	wave      [][]byte

	// fetchMu serializes the node's application-side fetch sequences (the
	// fault path and GC validation waves, both through Client.fetchLocked): its
	// replies route by message type alone, so on a multi-client node two
	// concurrent exchanges would steal each other's replies — and a fault
	// snapshot must never straddle a GC purge. Always acquired WITHOUT mu
	// held (n.mu may be taken and released while fetchMu is held, never the
	// reverse).
	fetchMu sync.Mutex

	// eng is an island's one protocol engine: the clients NewClient adds
	// hold it across every page walk and Flush, so one thread of the
	// island faults or flushes at a time. It is never held across a wait
	// an island-mate must end (locks, semaphores, conditions, barriers).
	// Order: eng, then fetchMu, then mu.
	eng sync.Mutex

	locks map[int]*lockState
	semas map[int]*syncQueue
	conds map[int]*syncQueue

	kids   int      // the node's children in the barrier tree (barrier.go)
	barN   int      // team threads gathered at the island barrier (under mu)
	barMax sim.Time // their latest arrival

	stats NodeStats
}

// Ledger is the virtual-time ledger: where application threads' time
// went, slice by slice, with each slice's counts beside it. NodeStats
// embeds it per node and Report summed over nodes, so a new slice is one
// field here plus its increments.
type Ledger struct {
	// Fault rounds (faultRoundLocked): FaultWait is the virtual time application
	// threads spent inside them — the client clock READ at entry and exit,
	// never advanced for the measurement — FaultRounds the rounds that went
	// to the network, FaultPages the pages those rounds fetched, GroupPages
	// the part of FaultPages the faulting thread's page groups added.
	FaultWait   sim.Time
	FaultRounds int64
	FaultPages  int64
	GroupPages  int64

	// LockWait: time inside Acquire, call to grant (island-local handoffs
	// included), read off the client clock like FaultWait.
	LockWait sim.Time
	// The part of FaultWait and FaultRounds spent while the faulting client
	// held a lock: a round there lengthens every waiter's queue wait too.
	LockFaultWait   sim.Time
	LockFaultRounds int64

	// SemaWait: time inside SemaWait and SemaSignal, call to return (a
	// wait's grant or a signal's acknowledgment), read off the client
	// clock like FaultWait.
	SemaWait sim.Time

	// The collector's validation wave (gcPurgePagesLocked): the virtual time
	// threads spent in it, read off the client clock like FaultWait, and the
	// wave's fetch-exchange traffic — a sub-split of what Report books as
	// page service, not a fourth category.
	GCWait                  sim.Time
	GCWaveMsgs, GCWaveBytes int64

	// IntrTime: the node's protocol server charging requests it serves
	// (chargeInterruptLocked) — time stolen from the node's clock, not read
	// off a thread's, so it is not a part of any slice above.
	IntrTime sim.Time
}

// NodeStats counts protocol events on one node. System.TotalStats sums
// them, and System.Report carries the run's share of them to apps.Result
// and the harness tables (Table 2, README "Protocol-metadata garbage
// collection").
type NodeStats struct {
	ReadFaults   int64
	WriteFaults  int64
	ZeroFills    int64 // faults on never-written pages, resolved from local zeros: no message
	PageFetches  int64
	DiffsCreated int64
	DiffsApplied int64 // interval diffs applied, each constituent of a merged diff counted
	DiffsMerged  int64 // diffs served folded into an earlier diff's reply (mergeDiffs)
	LockAcquires int64
	LockLocal    int64 // acquires satisfied without messages
	Barriers     int64
	SemaOps      int64
	CondOps      int64
	Flushes      int64
	Interrupts   int64

	Ledger

	// Garbage collection counters (see gc.go and acqgc.go).
	GCEpisodes       int64 // global sync episodes examined by the collector
	GCEpochs         int64 // episode-announced floors processed here
	GCAcqEpochs      int64 // consensus-announced (lock-manager-led) floors processed here
	GCSyncPushes     int64 // consensus pushes a push round's initiator sent (first hops)
	GCSyncReverse    int64 // reverse deltas pushed nodes answered with
	GCSyncRelays     int64 // tree-routed consensus pushes relayed onward
	IntervalsRetired int64 // interval records reclaimed
	DiffsPaid        int64 // encodes charged to the model: at a first serve or grant, or at an invalidation
	GCPagesValidated int64 // stale copies brought current during GC
	GCPagesFlushed   int64 // stale copies discarded during GC
	GCPurges         int64 // the purge's passes over the work list (gcPurgePagesLocked)

	// Protocol-metadata footprint: interval records + encoded diffs +
	// twins retained on this node. ProtoBytes is the current gauge;
	// the Peak fields record the worst case seen over the run, which is
	// what bounds a real TreadMarks process's memory.
	ProtoBytes        int64
	PeakProtoBytes    int64
	PeakIntervalChain int64 // longest per-creator interval list ever held
}

// protoAddLocked moves the protocol-metadata gauge and tracks its peak.
func (n *Node) protoAddLocked(delta int64) {
	n.stats.ProtoBytes += delta
	if n.stats.ProtoBytes > n.stats.PeakProtoBytes {
		n.stats.PeakProtoBytes = n.stats.ProtoBytes
	}
}

// noteChainLocked tracks the peak retained interval-chain length.
func (n *Node) noteChainLocked(c int) {
	if l := int64(len(n.intervals[c])); l > n.stats.PeakIntervalChain {
		n.stats.PeakIntervalChain = l
	}
}

// errAborted unwinds application threads when another node panicked and
// the system is shutting down.
type abortError struct{ cause string }

func (e abortError) Error() string { return "dsm: run aborted: " + e.cause }

// ID returns the node's processor number (0 = master).
func (n *Node) ID() int { return n.id }

// NumProcs returns the number of processors in the system.
func (n *Node) NumProcs() int { return n.sys.cfg.Procs }

// Sys returns the owning system (for allocation from application code).
func (n *Node) Sys() *System { return n.sys }

// Stats returns a copy of the node's protocol counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ---------------------------------------------------------------------
// Interval bookkeeping (all *Locked methods require n.mu).
// ---------------------------------------------------------------------

// pageFor returns the node's entry for page pid, making it — and growing the
// page table to reach it — when the page is first mentioned: the entry's one
// constructor. A page costs no more until its bytes are used (useLocked).
func (n *Node) pageFor(pid PageID) *page {
	if pid < 0 || int(pid) >= n.sys.heapPages() {
		panic(fmt.Sprintf("dsm: page %d outside shared heap (%d pages); use System.Malloc", pid, n.sys.heapPages()))
	}
	if k := int(pid) + 1 - len(n.pages); k > 0 {
		n.pages = append(n.pages, make([]*page, k)...)
	}
	pg := n.pages[pid]
	if pg == nil {
		pg = &page{id: pid}
		n.pages[pid] = pg
	}
	return pg
}

// closeIntervalLocked ends the node's open interval if it wrote anything,
// assigning the interval the node's incremented vector clock and recording
// a write notice for every dirty page. It is the one place the host encodes
// a diff: each dirty page's is stored on the interval and its twin freed.
// The modelled node pays for the encode only when the diff is first needed
// (page.unpaid), and the metadata gauge keeps counting the twin until then.
func (n *Node) closeIntervalLocked() {
	if len(n.dirty) == 0 || n.sys.cfg.Procs == 1 {
		return
	}
	ivl := &interval{
		creator: n.id,
		seq:     int(n.vc[n.id]),
		diffs:   make(map[PageID][]byte, len(n.dirty)),
	}
	n.vc[n.id]++
	ivl.vc = n.vc.clone()
	for _, pg := range n.dirty {
		ivl.pages = append(ivl.pages, pg.id)
		ivl.diffs[pg.id], n.diffBuf = makeDiff(&n.sys.pool, pg.data, pg.twin, n.diffBuf)
		n.stats.DiffsCreated++
		n.sys.pool.put(pg.twin) // nothing else references a twin
		pg.twin = nil
		pg.unpaid = append(pg.unpaid, ivl)
		pg.lastOwnSeq = ivl.seq
		pg.inDirty = false
		n.mergeSeenLocked(pg, ivl.vc)
		n.mergeAppliedLocked(pg, ivl.vc)
		if pg.state == pageReadWrite {
			// Write-protect at interval close so the next local write
			// faults and takes a fresh twin.
			pg.state = pageReadOnly
		}
	}
	n.dirty = n.dirty[:0]
	slices.Sort(ivl.pages) // the one sort a notice list gets (encodeRecords)
	n.intervals[n.id] = append(n.intervals[n.id], ivl)
	n.noteChainLocked(n.id)
	n.protoAddLocked(ivlRecordBytes(ivl))
}

// incorporateLocked merges received consistency information: it stores new
// intervals, enforcing the gap-free prefix invariant, invalidates the pages
// named by their write notices, and raises the node's vector clock. This is
// the "acquire" half of lazy release consistency. A record the node already
// holds, created, or retired — every node incorporated it before the
// collector freed it — is a duplicate.
//
// The order is load-bearing: ALL invalidations happen before ANY clock
// merge. An invalidation may close the node's open write interval early
// (multiple-writer), and the closed interval's clock must not cover
// batch-mates its writes never observed — otherwise a third node could
// treat that interval as dominating content (the diff-squash fallback)
// that its creator's copy does not actually reflect. With this ordering
// the invariant "interval M's clock covers X ⇒ M's creator incorporated
// X's write notice before performing any write stamped into M" holds.
func (n *Node) incorporateLocked(recs []*interval, senderVC VectorClock) {
	var fresh []*interval
	for _, rec := range recs {
		have := n.intervals[rec.creator]
		if idx := rec.seq - n.ivlBase[rec.creator]; rec.creator == n.id || idx < len(have) {
			continue
		} else if idx > len(have) {
			panic(fmt.Sprintf("dsm: node %d received interval (%d,%d) with gap (have base %d + %d)",
				n.id, rec.creator, rec.seq, n.ivlBase[rec.creator], len(have)))
		}
		n.intervals[rec.creator] = append(have, rec)
		n.noteChainLocked(rec.creator)
		n.protoAddLocked(ivlRecordBytes(rec))
		for _, pid := range rec.pages {
			n.invalidateLocked(n.pageFor(pid), rec)
		}
		fresh = append(fresh, rec)
	}
	for _, rec := range fresh {
		n.vc.merge(rec.vc)
	}
	if senderVC != nil {
		n.vc.merge(senderVC)
	}
}

// invalidateLocked applies one write notice to a page. If the page is
// being written locally, the local modifications are preserved: the open
// interval is closed early, encoding its diff, and the remote diffs will
// later be merged into the local data (multiple-writer protocol).
func (n *Node) invalidateLocked(pg *page, ivl *interval) {
	if pg.pageCopy != nil && pg.twin != nil {
		n.closeIntervalLocked()
	}
	// The modelled node encodes its kept twins before the page changes,
	// charging its clock for each.
	for pg.pageCopy != nil && len(pg.unpaid) > 0 {
		n.clock.Advance(n.payLocked(pg, pg.unpaid[0]))
		n.stats.DiffsPaid++
	}
	pg.state = pageInvalid
	pg.missing = append(pg.missing, ivl)
	n.noteGCPageLocked(pg)
	n.mergeSeenLocked(pg, ivl.vc)
}

// noteGCPageLocked enrolls a page in the GC work list the first time it
// gains state a collection epoch must examine (a missing notice or a
// twin). Membership is pruned at the end of each epoch.
func (n *Node) noteGCPageLocked(pg *page) {
	if !pg.inGCList {
		pg.inGCList = true
		n.gcPages = append(n.gcPages, pg)
	}
}

// mergeSeenLocked folds an interval clock into the page's observation
// history (see page.seenVC: none kept on a page with no copy part).
func (n *Node) mergeSeenLocked(pg *page, vc VectorClock) {
	if sc := n.sys.seenCheck; sc != nil {
		sc.merged(n, pg, vc)
	}
	if pg.pageCopy == nil {
		return
	}
	if pg.seenVC == nil {
		pg.seenVC = newVC(n.sys.cfg.Procs)
	}
	pg.seenVC.merge(vc)
}

// keepSeenLocked folds the missing notices into seenVC once the page has
// left the no-copy state (idempotent on a page that had a copy).
func (n *Node) keepSeenLocked(pg *page) {
	for _, m := range pg.missing {
		n.mergeSeenLocked(pg, m.vc)
	}
}

// seenDominatedLocked reports seenVC ≤ vc, for a page with no copy part
// from its missing notices (page.seenVC); called with some notice missing.
func (n *Node) seenDominatedLocked(pg *page, vc VectorClock) bool {
	ok := !slices.ContainsFunc(pg.missing, func(m *interval) bool { return !m.vc.dominatedBy(vc) })
	if pg.pageCopy != nil {
		ok = pg.seenVC != nil && pg.seenVC.dominatedBy(vc)
	}
	if sc := n.sys.seenCheck; sc != nil {
		sc.decided(n, pg, vc, ok)
	}
	return ok
}

// mergeAppliedLocked folds an interval clock into the page's baked-in
// content history (see page.appliedVC) — called when the node's own write
// interval closes over the page and when a remote diff is applied to it.
func (n *Node) mergeAppliedLocked(pg *page, vc VectorClock) {
	if pg.appliedVC == nil {
		pg.appliedVC = newVC(n.sys.cfg.Procs)
	}
	pg.appliedVC.merge(vc)
}

// payLocked settles the diff of the node's interval ivl that pg still owes
// the modelled node (page.unpaid) and returns what encoding it costs: one
// page scan the first time the diff is needed, 0 after that. The gauge
// moves from the kept twin to the diff that stands for it.
func (n *Node) payLocked(pg *page, ivl *interval) sim.Time {
	i := slices.Index(pg.unpaid, ivl)
	if i < 0 {
		return 0
	}
	pg.unpaid = slices.Delete(pg.unpaid, i, i+1)
	n.protoAddLocked(int64(len(ivl.diffs[pg.id])) - PageSize)
	return n.diffCost()
}

// diffCost is the modelled cost of encoding one diff: a page-to-twin scan.
func (n *Node) diffCost() sim.Time {
	return n.sys.plat.DiffCreate + sim.Time(float64(PageSize)*n.sys.plat.DiffPerByte)
}

// deltaForLocked collects every interval the node knows that is not
// covered by target, in causal (creator, seq) order. This is the payload
// of every consistency-bearing message. A target component below the
// retained base is clamped to it: intervals under the base were retired
// by the garbage collector only after every node — the delta's receiver
// included — had incorporated them, so the receiver cannot actually lack
// them even when our knownVC estimate is that stale. The result is the
// node's scratch: every caller encodes it before the next call.
func (n *Node) deltaForLocked(target VectorClock) []*interval {
	out := n.deltaBuf[:0]
	for c := 0; c < n.sys.cfg.Procs; c++ {
		have := n.intervals[c]
		start := int(target[c]) - n.ivlBase[c]
		if start < 0 {
			start = 0
		}
		if start < len(have) {
			out = append(out, have[start:]...)
		}
	}
	n.deltaBuf = out
	return out
}

// retainDiffLocked keeps a pooled copy of a foreign diff, when diffs has it,
// on the stored interval record where a lock grant can forward it
// (putGrantDataLocked): charged to the metadata gauge, freed with the record.
func (n *Node) retainDiffLocked(ivl *interval, pid PageID, diffs map[diffKey][]byte) {
	d, ok := diffs[diffKey{pid, ivl.creator, ivl.seq}]
	if _, have := ivl.diffs[pid]; !ok || have || ivl.creator == n.id {
		return
	}
	if ivl.diffs == nil {
		ivl.diffs = map[PageID][]byte{}
	}
	ivl.diffs[pid] = n.sys.pool.clone(d)
	n.protoAddLocked(int64(len(d)))
}

// noteSentLocked records that node j has been sent everything up to our
// current vector clock (used to bound future piggybacked deltas).
//
// Soundness: call this ONLY for request-class delta sends performed by the
// application thread while holding n.mu (barrier arrivals, semaphore
// signals, flush, fork, join). Those sends share one FIFO channel per
// destination, so by induction the receiver always gets the gap-free
// prefix before any delta that assumes it. Reply-class sends (grants,
// departures) are exact deltas against the receiver's reported clock and
// must not touch the estimate.
func (n *Node) noteSentLocked(j int) {
	n.knownVC[j].merge(n.vc)
}

// noteHeardLocked records j's vector clock as carried by a message from j.
func (n *Node) noteHeardLocked(j int, v VectorClock) {
	if v != nil {
		n.knownVC[j].merge(v)
	}
}

// ---------------------------------------------------------------------
// Fault handling.
// ---------------------------------------------------------------------

// readableLocked reports whether the page can be read without protocol
// action.
func readableLocked(pg *page) bool {
	return pg.holds() && pg.state != pageInvalid && len(pg.missing) == 0
}

// ensureReadableLocked drives the read-fault loop until the page has a
// current local copy. It may release and reacquire n.mu. Fault costs are
// charged to the calling client's clock.
func (c *Client) ensureReadableLocked(pg *page) {
	n := c.n
	for !readableLocked(pg) {
		n.stats.ReadFaults++
		c.faultRoundLocked([]*page{pg})
	}
}

// ensureWritableLocked drives the write-fault loop until the page is
// writable with a twin in the open interval. It may release and reacquire
// n.mu.
func (c *Client) ensureWritableLocked(pg *page) {
	n := c.n
	if n.sys.cfg.Procs == 1 {
		// Single-processor fast path: with no other node to ever request
		// a diff or send a write notice, TreadMarks performs no twinning
		// or write protection; writes run at memory speed (the one node
		// homes every page, so the walk's useLocked built the copy).
		pg.state = pageReadWrite
		return
	}
	for {
		if pg.state == pageReadWrite && len(pg.missing) == 0 {
			return
		}
		if !readableLocked(pg) {
			n.stats.WriteFaults++
			c.faultRoundLocked([]*page{pg})
			continue
		}
		// Read-only with a current copy: take the write fault.
		n.stats.WriteFaults++
		c.noteLockDataLocked(pg)
		c.clk.Advance(n.sys.plat.FaultOverhead)
		pg.twin = n.sys.pool.clone(pg.data)
		n.noteGCPageLocked(pg)
		n.protoAddLocked(PageSize)
		c.clk.Advance(n.sys.plat.TwinCopy)
		pg.state = pageReadWrite
		if !pg.inDirty {
			pg.inDirty = true
			n.dirty = append(n.dirty, pg)
		}
		return
	}
}

// diffKey names one fetched diff: page, interval creator, interval seq.
type diffKey struct {
	pid          PageID
	creator, seq int
}

// sortCausal orders intervals by a linearization of the happens-before
// relation — (vc sum, creator, seq) — the order in which their diffs
// must be applied (see VectorClock.sum for the validity argument).
func sortCausal(ivls []*interval) {
	slices.SortFunc(ivls, func(a, b *interval) int {
		return cmp.Or(cmp.Compare(a.vc.sum(), b.vc.sum()), cmp.Compare(a.creator, b.creator), cmp.Compare(a.seq, b.seq))
	})
}

// foldsIntoPrev reports whether fetch[i], in causal order, is a later
// constituent of a merged diff: its creator made fetch[i-1] too.
func foldsIntoPrev(fetch []*interval, i int) bool {
	return i > 0 && fetch[i-1].creator == fetch[i].creator
}

// pagePlan is one page's share of a fault round: what to fetch from whom
// and which notices the fetch settles (planFaultLocked), then the whole
// page the network section brought back, if one was wanted.
type pagePlan struct {
	pg        *page
	source    int         // whole-page source (the home, or a squash creator); -1: diffs only
	squashIvl *interval   // the interval whose creator's copy stands in for the chain
	fetch     []*interval // diffs to fetch and apply
	resolved  []*interval // notices this round settles
	merge     bool        // fetch a creator's causally adjacent diffs as one merged diff
	content   []byte
}

// planFaultLocked classifies one faulting page under n.mu and fetchMu;
// ok is false when the page needs no fetch (resolved while the caller
// waited for the fetch lock, or a never-written page filled with zeros).
// keepDiffs — the faulting client holds a lock — fetches a held copy's
// diffs, never a squash, and each interval's diff apart, never merged, so a
// grant can forward them.
func (n *Node) planFaultLocked(pg *page, keepDiffs bool) (pl pagePlan, ok bool) {
	if readableLocked(n.useLocked(pg)) {
		return pl, false
	}
	// A cold page — no copy here — that a collector flush left without its
	// full notice history (refetch) rebuilds from the home's validated
	// copy. Any other cold page starts from local zeros (zeroFillLocked,
	// below): no whole-page source unless the squash picks a creator.
	pl = pagePlan{pg: pg, source: -1, merge: !keepDiffs}
	cold := !pg.holds()
	if cold && pg.refetch {
		pl.source = n.homeOf(pg.id)
	}
	// Snapshot the notices we will resolve in this round.
	pl.fetch = append([]*interval(nil), pg.missing...)
	pl.resolved = pl.fetch

	// Diff squash (the TreadMarks fallback for accumulated diff chains):
	// if some missing interval M has observed everything this node has
	// ever seen of the page (seenVC ≤ M.vc), then M's creator's current
	// copy reflects every modification we know about, and one whole-page
	// transfer replaces the entire chain. Worth it when the page is cold
	// anyway, or when the chain is long enough that its diffs would cost
	// more than a page.
	const squashMin = 4
	if len(pl.fetch) > 0 && (cold || !keepDiffs && len(pl.fetch) >= squashMin) {
		for _, m := range pl.fetch {
			if m.creator != n.id && n.seenDominatedLocked(pg, m.vc) {
				if !cold && pg.inDirty {
					panic("dsm: squash with dirty page")
				}
				for _, o := range pl.fetch {
					if !o.vc.dominatedBy(m.vc) {
						panic("dsm: squash misses concurrent interval")
					}
				}
				pl.source = m.creator
				pl.squashIvl = m
				pl.fetch = nil // every missing interval is ≤ M: page covers all
				break
			}
		}
	}
	if cold && pl.source < 0 {
		n.zeroFillLocked(pg)
		if len(pl.fetch) == 0 {
			n.stats.ZeroFills++ // settled here, for the fault entry alone
			return pl, false
		}
	}
	return pl, true
}

// applyFaultLocked installs what the network section fetched for one
// planned page and retires the notices it settles.
func (c *Client) applyFaultLocked(pl *pagePlan, diffs map[diffKey][]byte) {
	n, pg := c.n, pl.pg
	if pl.source >= 0 {
		if pl.content == nil {
			panic(fmt.Sprintf("dsm: node %d fetched no content for page %d", n.id, pg.id))
		}
		n.stats.PageFetches++
		// A whole page is a squash or a flushed copy's refetch (planFaultLocked).
		// A squashed fetch deliberately replaces stale local content: the
		// source's copy reflects everything this node had observed (squash
		// precondition), as does the home's (the flush gate held when any
		// covered notice was dropped) — either way the whole-page base
		// repairs a flush-truncated notice history; copied, never aliased.
		if pg.copyPart().data == nil {
			pg.data = n.sys.pool.get(PageSize)
		}
		if applied := wholePage(pg.data, pl.content); len(pl.content) != PageSize {
			c.clk.Advance(n.sys.plat.DiffApply + sim.Time(float64(applied)*n.sys.plat.DiffApplyPerByte))
		}
		pg.refetch = false
		n.keepSeenLocked(pg)
		if pl.squashIvl != nil {
			// The source's copy bakes in at least M's history; content the
			// source wrote beyond M is re-delivered by its future notices.
			n.mergeAppliedLocked(pg, pl.squashIvl.vc)
		} else {
			// Fresh home base: home copies only move forward, so nothing
			// baked in here needs tracking until a diff lands on it.
			pg.appliedVC = nil
		}
	}
	// The whole snapshot is settled even when a squash left no diff to apply.
	c.applyDiffsLocked(pg, pl.fetch, pl.resolved, diffs, pl.merge)
}

// applyDiffsLocked applies the fetched diffs of the given intervals to a
// page in a linearization of happens-before, then removes exactly the
// settled notices from pg.missing — new ones may have been appended while
// these were being fetched — and revalidates the page once none is left.
// The fault path, the GC validation wave and a grant's data share it. With
// merged, an interval whose creator made the one before it in that order
// came inside that one's merged diff (fetchLocked): it is applied there.
func (c *Client) applyDiffsLocked(pg *page, fetch, settled []*interval, diffs map[diffKey][]byte, merged bool) {
	n, plat := c.n, c.n.sys.plat
	sortCausal(fetch)
	for i, ivl := range fetch {
		n.mergeAppliedLocked(pg, ivl.vc)
		n.stats.DiffsApplied++
		if merged && foldsIntoPrev(fetch, i) {
			continue
		}
		d, ok := diffs[diffKey{pg.id, ivl.creator, ivl.seq}]
		if !ok {
			panic(fmt.Sprintf("dsm: node %d missing diff (%d,%d) for page %d", n.id, ivl.creator, ivl.seq, pg.id))
		}
		applied := applyDiff(pg.data, d)
		c.clk.Advance(plat.DiffApply + sim.Time(float64(applied)*plat.DiffApplyPerByte))
	}
	done := make(map[*interval]bool, len(settled))
	for _, ivl := range settled {
		done[ivl] = true
	}
	rest := pg.missing[:0]
	for _, ivl := range pg.missing {
		if !done[ivl] {
			rest = append(rest, ivl)
		}
	}
	for i := len(rest); i < len(pg.missing); i++ {
		pg.missing[i] = nil
	}
	pg.missing = rest
	if len(pg.missing) == 0 && pg.holds() && pg.state == pageInvalid {
		pg.state = pageReadOnly
	}
}

// faultRoundLocked performs one round of the page-fault protocol over the
// given pages — one page for an ordinary fault, every stale page of a
// multi-page access (fetchSpanLocked), plus the stale pages of their page
// groups once one of them needs a fetch (group.go): start a page never held
// here from zeros (or refetch a collector-flushed copy from its home), fetch
// all missing diffs from their creators in parallel, and apply them in a
// topological order of the happens-before relation. n.mu is released while
// requests are in flight; the loop in ensure*Locked re-checks state
// afterwards because new write notices may have arrived meanwhile — a
// round never has to be complete for an access to be correct.
//
// The whole round holds fetchMu (acquired with n.mu dropped, then the
// state re-examined): it keeps a multi-client node's concurrent fetch
// waves from stealing each other's type-routed replies, and it orders
// every fault snapshot strictly before or after any GC purge — a fault
// can therefore never fetch a notice a concurrent purge is discarding.
func (c *Client) faultRoundLocked(pgs []*page) {
	n := c.n
	entered := c.clk.Now()
	c.clk.Advance(n.sys.plat.FaultOverhead)

	n.mu.Unlock()
	n.fetchMu.Lock()
	defer n.fetchMu.Unlock()
	n.mu.Lock()
	c.noteLockDataLocked(pgs...)
	c.closeGroupLocked()
	plans := make([]pagePlan, 0, len(pgs))
	for _, pg := range pgs {
		if pl, ok := n.planFaultLocked(pg, len(c.held) > 0); ok {
			plans = append(plans, pl)
		}
	}
	if own := len(plans); own > 0 {
		for _, pg := range c.groupPagesLocked(pgs) {
			if pl, ok := n.planFaultLocked(pg, false); ok {
				plans = append(plans, pl)
			}
		}
		diffs, replies, floor, _, _ := c.fetchLocked(plans)
		// Sources work in parallel, but their replies share this node's
		// inbound link: every round, of one page or many, completes no
		// earlier than that link needs to deliver every reply byte back to
		// back. (Without the floor seven sources' overlapping replies would
		// be credited with seven times the link's bandwidth; per-port
		// occupancy in the network model would replace it.)
		c.clk.AdvanceTo(floor)
		for i := range plans {
			pl := &plans[i]
			c.applyFaultLocked(pl, diffs)
			for _, ivl := range pl.fetch {
				if len(c.held) > 0 { // a grant of the lock may forward it
					n.retainDiffLocked(ivl, pl.pg.id, diffs)
				}
			}
			c.recordLocked(pl.pg.id)
		}
		n.sys.pool.put(replies...)
		n.stats.FaultRounds++
		n.stats.FaultPages += int64(len(plans))
		n.stats.GroupPages += int64(len(plans) - own)
		if len(c.held) > 0 {
			n.stats.LockFaultRounds++
		}
	}
	waited := c.clk.Now() - entered
	n.stats.FaultWait += waited
	if len(c.held) > 0 {
		n.stats.LockFaultWait += waited
	}
}

// relockOnPanic is deferred by a section that releases n.mu and re-takes
// it before returning: a panic leaving the section (an abort in recvReply,
// a send on a switch that is down) re-takes it too, so the deferred Unlock
// of the caller that took n.mu finds it held.
func (n *Node) relockOnPanic() {
	if r := recover(); r != nil {
		n.mu.Lock()
		panic(r)
	}
}

// unlocked runs f with n.mu released and re-takes n.mu however f leaves.
func (n *Node) unlocked(f func()) {
	n.mu.Unlock()
	defer n.relockOnPanic()
	f()
	n.mu.Lock()
}

// fetchLocked is the one exchange that moves pages and diffs — the network
// section of every fault round and of the collector's validation wave
// (gcPurgePagesLocked). The wanted whole pages and diffs are grouped by the
// node that serves them and travel as msgFetchReq/msgFetchRep pairs, at most
// HomeBlockPages items a request so a reply (≤ 33 KB) fits one UDP datagram.
// Every request leaves at the round's start; the client's clock follows the
// replies to the latest arrival. Whole pages are filed into their plans and
// diffs returned by key, with the inbound-link floor: when this node's link,
// delivering every reply byte back to back, would be done. The caller prices
// the round and, once applied, releases the replies (pages and diffs are
// views into them). msgs and bytes are the exchange's traffic, both
// directions, as the switch counts it. A plan that merges asks each creator
// for a run of its diffs that sit next to each other in causal order as one
// item, answered by one merged diff applied at the run's first place
// (applyDiffsLocked). Requires n.mu and fetchMu; n.mu is released while
// requests are in flight, and re-taken on every way out, an abort unwinding
// out of recvReply included.
func (c *Client) fetchLocked(plans []pagePlan) (diffs map[diffKey][]byte, replies [][]byte, floor sim.Time, msgs, bytes int64) {
	n := c.n
	n.mu.Unlock() // --- network section: servers may run meanwhile ---
	defer n.relockOnPanic()
	type request struct {
		to    int
		items []fetchItem
	}
	var reqs []*request
	open := make(map[int]*request) // source → its request still under the cap
	add := func(to int, it fetchItem) {
		rq := open[to]
		if rq == nil || len(rq.items) == HomeBlockPages {
			rq = &request{to: to}
			open[to] = rq
			reqs = append(reqs, rq)
		}
		rq.items = append(rq.items, it)
	}
	byPage := make(map[PageID]*pagePlan, len(plans))
	for i := range plans {
		pl := &plans[i]
		byPage[pl.pg.id] = pl
		if pl.source >= 0 {
			add(pl.source, fetchItem{pid: pl.pg.id, seq: -1})
		}
		sortCausal(pl.fetch)
		for j, ivl := range pl.fetch {
			if pl.merge && foldsIntoPrev(pl.fetch, j) {
				// The creator's open request ends with the run's first item.
				rq := open[ivl.creator]
				it := &rq.items[len(rq.items)-1]
				it.later = append(it.later, ivl.seq)
				continue
			}
			add(ivl.creator, fetchItem{pid: pl.pg.id, seq: ivl.seq})
		}
	}
	start := c.clk.Now()
	udp := n.sys.plat.UDP
	msgs = int64(2 * len(reqs))
	bytes = msgs * int64(udp.HeaderBytes)
	for _, rq := range reqs {
		w := wbuf{pool: &n.sys.pool}
		encodeFetch(&w, rq.items, false)
		bytes += int64(len(w.b))
		n.ep.SendAt(rq.to, msgFetchReq, network.ClassRequest, w.b, start)
	}
	diffs = make(map[diffKey][]byte)
	inbound := 0
	for range reqs {
		rep := c.recvReply(msgFetchRep, 0)
		inbound += len(rep.Payload)
		replies = append(replies, rep.Payload)
		r := rbuf{b: rep.Payload}
		for _, it := range decodeFetch(&r, true) {
			pl := byPage[it.pid]
			if pl == nil {
				panic(fmt.Sprintf("dsm: node %d fetch reply from %d names unrequested page %d", n.id, rep.From, it.pid))
			}
			if it.seq < 0 {
				pl.content = it.data
			} else {
				diffs[diffKey{it.pid, rep.From, it.seq}] = it.data
			}
		}
	}
	n.mu.Lock() // --- end network section ---
	return diffs, replies, start + 2*udp.OneWay + sim.Time(float64(inbound)*udp.PerByteNS), msgs, bytes + int64(inbound)
}

// fetchSpanLocked resolves, before a multi-page access walks its pages,
// every page of [a, a+size) without a current copy in ONE fault round; the
// per-page ensure*Locked loop then settles whatever arrived meanwhile.
// faults is the access's fault counter (read or write), bumped once per
// page as the per-page loop would have.
func (c *Client) fetchSpanLocked(a Addr, size int, faults *int64) {
	first, last := int(a)/PageSize, (int(a)+size-1)/PageSize
	if first >= last {
		return
	}
	var stale []*page
	for pid := first; pid <= last; pid++ {
		if pg := c.n.useLocked(c.n.pageFor(PageID(pid))); !readableLocked(pg) {
			stale = append(stale, pg)
		}
	}
	if len(stale) > 0 {
		*faults += int64(len(stale))
		c.faultRoundLocked(stale)
	}
}

// ---------------------------------------------------------------------
// Typed access to shared memory. Every access goes through one page walk,
// the compiler-emitted access check that stands in for an mprotect fault:
// it verifies each page's validity and takes the fault path when needed.
// A multi-page span first resolves every stale page in one fault round
// (fetchSpanLocked). The operations are Client methods so fault costs land
// on the accessing thread's clock; a Node has them through its embedded
// default client.
// ---------------------------------------------------------------------

// checkRange bounds an access by the allocated extent, not by HeapBytes.
func (n *Node) checkRange(a Addr, size int) {
	if end := n.sys.heapNext.Load(); a < 0 || int64(a)+int64(size) > end {
		panic(fmt.Sprintf("dsm: access [%d,%d) outside shared heap of %d allocated bytes", a, int(a)+size, end))
	}
}

// walk is the access check: it makes every page of [a, a+size) readable,
// or writable when write is set, and hands each page's part of the span to
// part, with the part's byte offset in the span, then shows it to the
// shadow-memory oracle. A client that NewClient added holds the node's
// engine lock throughout, so an island's threads fault one at a time.
func (c *Client) walk(a Addr, size int, write bool, part func(mem []byte, at int)) {
	n := c.n
	n.checkRange(a, size)
	if c.tag != 0 {
		n.eng.Lock()
		defer n.eng.Unlock()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	faults := &n.stats.ReadFaults
	if write {
		faults = &n.stats.WriteFaults
	}
	c.fetchSpanLocked(a, size, faults)
	for at := 0; at < size; {
		addr := int(a) + at
		off := addr % PageSize
		pg := n.useLocked(n.pageFor(PageID(addr / PageSize)))
		if write {
			c.ensureWritableLocked(pg)
		} else {
			c.ensureReadableLocked(pg)
		}
		mem := pg.data[off : off+min(PageSize-off, size-at)]
		part(mem, at)
		if debugOracleOn {
			oracleSee(n.id, Addr(addr), mem, write)
		}
		at += len(mem)
	}
}

// ReadF64 reads a float64 at shared address a.
func (c *Client) ReadF64(a Addr) float64 {
	return math.Float64frombits(c.readU64(a))
}

// WriteF64 writes a float64 at shared address a.
func (c *Client) WriteF64(a Addr, v float64) {
	c.writeU64(a, math.Float64bits(v))
}

// ReadI64 reads an int64 at shared address a.
func (c *Client) ReadI64(a Addr) int64 { return int64(c.readU64(a)) }

// WriteI64 writes an int64 at shared address a.
func (c *Client) WriteI64(a Addr, v int64) { c.writeU64(a, uint64(v)) }

// ReadI32 reads an int32 at shared address a.
func (c *Client) ReadI32(a Addr) int32 {
	var buf [4]byte
	c.ReadBytes(a, buf[:])
	return int32(binary.LittleEndian.Uint32(buf[:]))
}

// WriteI32 writes an int32 at shared address a.
func (c *Client) WriteI32(a Addr, v int32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(v))
	c.WriteBytes(a, buf[:])
}

func (c *Client) readU64(a Addr) uint64 {
	var buf [8]byte
	c.ReadBytes(a, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (c *Client) writeU64(a Addr, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	c.WriteBytes(a, buf[:])
}

// ReadBytes copies len(dst) bytes of shared memory starting at a into dst.
func (c *Client) ReadBytes(a Addr, dst []byte) {
	c.walk(a, len(dst), false, func(mem []byte, at int) { copy(dst[at:], mem) })
}

// WriteBytes copies src into shared memory starting at a.
func (c *Client) WriteBytes(a Addr, src []byte) {
	c.walk(a, len(src), true, func(mem []byte, at int) { copy(mem, src[at:]) })
}

// ReadF64s reads len(dst) consecutive float64s starting at a, decoding each
// page's part in place. A base that is not 8-aligned lets elements straddle
// pages and stages through the byte path.
func (c *Client) ReadF64s(a Addr, dst []float64) {
	if a%8 != 0 {
		buf := make([]byte, 8*len(dst))
		c.ReadBytes(a, buf)
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		return
	}
	c.walk(a, 8*len(dst), false, func(mem []byte, at int) {
		d := dst[at/8 : (at+len(mem))/8]
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(mem[8*i:]))
		}
	})
}

// WriteF64s writes the float64s of src to consecutive addresses from a,
// like ReadF64s.
func (c *Client) WriteF64s(a Addr, src []float64) {
	if a%8 != 0 {
		buf := make([]byte, 8*len(src))
		for i, x := range src {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		c.WriteBytes(a, buf)
		return
	}
	c.walk(a, 8*len(src), true, func(mem []byte, at int) {
		for i, x := range src[at/8 : (at+len(mem))/8] {
			binary.LittleEndian.PutUint64(mem[8*i:], math.Float64bits(x))
		}
	})
}

// ReadI32s reads len(dst) consecutive int32s starting at a, like ReadF64s
// with a 4-aligned base.
func (c *Client) ReadI32s(a Addr, dst []int32) {
	if a%4 != 0 {
		buf := make([]byte, 4*len(dst))
		c.ReadBytes(a, buf)
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		return
	}
	c.walk(a, 4*len(dst), false, func(mem []byte, at int) {
		d := dst[at/4 : (at+len(mem))/4]
		for i := range d {
			d[i] = int32(binary.LittleEndian.Uint32(mem[4*i:]))
		}
	})
}

// WriteI32s writes the int32s of src to consecutive addresses from a, like
// ReadI32s.
func (c *Client) WriteI32s(a Addr, src []int32) {
	if a%4 != 0 {
		buf := make([]byte, 4*len(src))
		for i, x := range src {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
		}
		c.WriteBytes(a, buf)
		return
	}
	c.walk(a, 4*len(src), true, func(mem []byte, at int) {
		for i, x := range src[at/4 : (at+len(mem))/4] {
			binary.LittleEndian.PutUint32(mem[4*i:], uint32(x))
		}
	})
}
