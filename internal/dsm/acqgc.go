package dsm

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/network"
)

// The acquire-epoch coordinator: the package's one collector (gc.go).
//
// Applications that synchronize exclusively through locks, semaphores, and
// condition variables — TSP's critical sections, QSORT's task-queue
// condvars, Sweep3D's semaphore pipelines — reach no barrier or fork for a
// whole region, so the episode trigger alone would let their interval
// chains grow for the region's length. Real TreadMarks solves this with a
// consensus garbage collection triggered on memory pressure (Amza et al.,
// IEEE Computer '96); this file is the simulation's analogue, led by the
// synchronization managers.
//
// Every lock acquire, semaphore wait/signal, and condition-variable wait
// already carries the requesting thread's vector clock on the wire, so the
// managers collectively observe, over time, a lower bound of every node's
// clock. The componentwise minimum of those observations is a floor F with
// the property that EVERY node has incorporated every interval under F —
// exactly the global agreement Keleher's LRC garbage collection requires.
// When the retirable-interval pressure (the floor's component sum beyond
// the last issued floor) crosses Config.GCPressure, the managers announce
// an epoch with floor F, piggybacked on the grant messages of whatever
// synchronization the nodes perform next; each node, on its next sync
// operation, runs the epoch (acqEpoch, gc.go's three steps). A barrier root
// or fork master announces its merged clock the same way (noteIssued).
//
// Soundness is a one-epoch-delayed free behind an acknowledgment gate:
//
//   - An announced floor F is ≤ every node's true clock at announcement
//     time (a min over clocks genuinely carried in sync requests, or the
//     root's merge of every node's clock at an episode), so every node has
//     stored every interval under F, and all future intervals have
//     sequence numbers above F.
//   - The coordinator announces epoch k+1 — by either trigger — only after
//     every node has acknowledged a purge covering EVERY floor issued so
//     far. Once every node has purged ⊇ F, no node holds an unfetched
//     write notice ≤ F, and none can ever reacquire one, so the diffs of
//     intervals under F are unreachable forever: freeing them while
//     processing epoch k+1 needs no further coordination.
//   - A node acknowledges a purge only once it is FINISHED. A copy may
//     flush only when its home has purged the floor (home.go); until then
//     it is left alone, notices and all — nothing is fetched for a page
//     nobody asked for — and the acknowledgment waits with it (acqEpoch),
//     so nothing under F is freed while any copy could still fault on it.
//
// In the simulation the coordinator is a System-level registry standing in
// for the managers' shared bookkeeping: the clocks it aggregates are the
// ones genuinely present in the request wire format, and the epoch
// announcements and purge acknowledgments ride messages that already flow
// (grants, acks, departures) — a few extra bytes the simulation does not
// charge separately.

// DefaultGCPressure is the collection threshold used when Config.GCPressure
// is zero: a floor is announced when it would newly retire at least this
// many interval records. It is set comfortably above one episode's
// retirement on barrier-dense applications: TreadMarks collects when
// consistency memory runs low, not at every barrier.
const DefaultGCPressure = 256

// acqCoord is the acquire-epoch consensus state: the simulation stand-in
// for bookkeeping the lock/semaphore/condvar managers share. Its mutex is
// a leaf — no method touches a node's state — so nodes may call it with or
// without their own mutex held.
type acqCoord struct {
	mu       sync.Mutex
	pressure int64

	// reported[i] is the latest clock node i has carried on any sync
	// request (a sound lower bound of its true clock; clocks only grow).
	reported []VectorClock
	// purged[i] is the merged floor of every collection epoch node i has
	// completed.
	purged []VectorClock
	// baseline is the merged floor of every epoch issued so far, by either
	// trigger. The next announcement is gated on every purged[i] covering
	// it.
	baseline VectorClock
	baseSum  int64
	// episode is the baseline as the last barrier or fork left it: the
	// floor an episode's nodes finish there (episodeFloorFor).
	episode VectorClock

	announced int64 // consensus-triggered epochs announced
	episodes  int64 // episode-triggered epochs announced
	pushes    int64 // consensus push rounds initiated

	// Push-round pacing: a round is started only when at least pushGap
	// reports have arrived since the last one. The gap starts at procs
	// and doubles each time a round completes without any consensus
	// progress (some thread the consensus is stuck on — say, a condvar
	// waiter whose wake depends on the pressured thread itself — cannot
	// be helped by more messages), resetting once progress resumes; a
	// pressured node can therefore never storm the quiet ones.
	reports   int64
	pushStamp int64
	pushGap   int64
	pushProg  int64 // progressLocked() at the last push round
}

func newAcqCoord(procs int, pressure int) *acqCoord {
	co := &acqCoord{pressure: int64(pressure),
		baseline: newVC(procs), episode: newVC(procs), pushGap: int64(procs)}
	for i := 0; i < procs; i++ {
		co.reported = append(co.reported, newVC(procs))
		co.purged = append(co.purged, newVC(procs))
	}
	return co
}

// progressLocked is a monotone scalar that advances whenever any node
// purges or an epoch is announced — what the backpressure loop and the
// push backoff watch to distinguish "consensus under way" from
// "consensus stuck on a thread only the application can unblock".
func (co *acqCoord) progressLocked() int64 {
	p := co.announced
	for _, v := range co.purged {
		p += v.sum()
	}
	return p
}

// progress is progressLocked under the coordinator lock.
func (co *acqCoord) progress() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.progressLocked()
}

// report records node id's clock as carried on a sync request and runs
// the announcement check. It returns the floor of an issued epoch id has
// not yet purged (if any), plus the set of quiet peers id should push a
// consensus-sync delta to (nil outside a push round): nodes whose stale
// clocks hold the consensus floor back, or whose missing purge
// acknowledgment gates the next announcement, while retirable pressure
// has built past the threshold. The push — TreadMarks' "interrupt every
// process for the consensus" — is what lets programs whose other threads
// sit parked on a condition variable or semaphore still retire the busy
// thread's interval chains.
// wantPush must be FALSE for callers that will not actually send the
// returned deltas (the server-side handler): a push round's pacing state
// (pushStamp, pushGap backoff) is consumed when the round is issued, and
// consuming it without sending would silently swallow the round.
func (co *acqCoord) report(id int, vc VectorClock, wantPush bool) (floor VectorClock, pending bool, push []int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.reports++
	co.reported[id].merge(vc)
	co.maybeAnnounceLocked()
	// No global purge order is imposed: every purge consults the per-page
	// flush gate (the homePurged registry), which enforces
	// home-validates-first page by page, so any node may be handed a
	// pending floor immediately.
	if !co.baseline.dominatedBy(co.purged[id]) {
		floor = co.baseline.clone()
		pending = true
	}
	// Push-round check: raw pressure counts every interval any node has
	// reported beyond the issued baseline — the metadata actually
	// accumulating somewhere — while the announcement path is blocked
	// (floor held back by stale clocks, or gate held by missing purges).
	if !wantPush || co.reports-co.pushStamp < co.pushGap {
		return floor, pending, nil
	}
	raw := int64(0)
	union := co.reported[0].clone()
	for _, r := range co.reported[1:] {
		union.merge(r)
	}
	raw = union.sum() - co.baseSum
	if raw < co.pressure {
		return floor, pending, nil
	}
	for i := range co.reported {
		if i == id {
			continue
		}
		if !union.dominatedBy(co.reported[i]) || !co.baseline.dominatedBy(co.purged[i]) {
			push = append(push, i)
		}
	}
	if push != nil {
		co.pushStamp = co.reports
		co.pushes++
		if prog := co.progressLocked(); prog == co.pushProg {
			if co.pushGap < 1024*int64(len(co.reported)) {
				co.pushGap *= 2
			}
		} else {
			co.pushGap = int64(len(co.reported))
			co.pushProg = prog
		}
	}
	return floor, pending, push
}

// pendingFloorFor returns the floor of an issued epoch node id has not
// yet purged — report()'s pending condition without registering a report
// or consuming push pacing. Frame senders
// use it to piggyback a msgGCFloor announcement onto a consensus delta
// already bound for the peer, so a quiet node learns of the epoch one
// datagram earlier than its own next sync operation would.
func (co *acqCoord) pendingFloorFor(id int) (VectorClock, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.baseline.dominatedBy(co.purged[id]) {
		return co.baseline.clone(), true
	}
	return nil, false
}

// episodeFloorFor returns the floor node id must finish at the current
// episode — the baseline as the episode's root left it (noteIssued) —
// unless id has acknowledged it already.
func (co *acqCoord) episodeFloorFor(id int) (VectorClock, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.episode.dominatedBy(co.purged[id]) {
		return co.episode.clone(), true
	}
	return nil, false
}

// gateOpenLocked reports whether every node has acknowledged everything
// issued so far: the gate that makes the one-epoch-delayed free sound, for
// both triggers.
func (co *acqCoord) gateOpenLocked() bool {
	for _, p := range co.purged {
		if !co.baseline.dominatedBy(p) {
			return false
		}
	}
	return true
}

// maybeAnnounceLocked issues a consensus-triggered epoch when the gate is
// open and the consensus floor would newly retire at least the pressure
// threshold.
func (co *acqCoord) maybeAnnounceLocked() {
	if !co.gateOpenLocked() {
		return
	}
	cand := co.reported[0].clone()
	for _, r := range co.reported[1:] {
		for i, v := range r {
			if v < cand[i] {
				cand[i] = v
			}
		}
	}
	// Monotone: every floor already issued is ≤ every node's true clock,
	// so merging keeps cand a sound global floor.
	cand.merge(co.baseline)
	if cand.sum()-co.baseSum < co.pressure {
		return
	}
	co.baseline = cand
	co.baseSum = cand.sum()
	co.announced++
}

// notePurged records that node id has completed a collection epoch with
// the given floor (its copies owe no diff under it, and never will again).
func (co *acqCoord) notePurged(id int, floor VectorClock) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.purged[id].merge(floor)
	// A node's clock dominates any floor it purged.
	co.reported[id].merge(floor)
}

// noteIssued is the episode trigger. The barrier root (after merging every
// arrival) or the fork master (after the join) calls it with its clock —
// the complete consensus, covering every interval in existence — BEFORE
// any departure or fork goes out. The clock is announced as the floor when
// the gate is open and it newly covers the pressure's worth of records; a
// closed gate skips the episode like a floor below threshold. Either way
// the resulting baseline is what the episode's nodes finish there.
func (co *acqCoord) noteIssued(floor VectorClock) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.gateOpenLocked() && floor.sum()-co.baseSum >= co.pressure {
		co.baseline.merge(floor)
		co.baseSum = co.baseline.sum()
		co.episodes++
	}
	co.episode = co.baseline.clone()
}

// announcedCounts returns the number of epochs issued so far by each
// trigger: consensus, then episode.
func (co *acqCoord) announcedCounts() (consensus, episode int64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.announced, co.episodes
}

// gcTreeConsensus reports whether consensus pushes route through the
// combining tree instead of directly to every target: more nodes than the
// flat barrier spans (procs > fanin+1). At or below that size the tree is
// flat — every node is at most one hop from the root — and direct sends
// already ARE the degenerate tree routing, so a fan-in ≥ Procs−1 would
// select the flat transport at any machine size.
func (n *Node) gcTreeConsensus() bool {
	return n.sys.cfg.Procs > n.sys.fanin+1
}

// routeTargetsLocked groups consensus destinations by their first
// combining-tree hop from this node, dropping the node itself. Hops come
// back sorted so send order is deterministic. byHop[h] lists the FINAL
// destinations to be relayed past h — h itself, always a recipient of
// the frame, is not in its own list.
func (n *Node) routeTargetsLocked(targets []int) (hops []int, byHop map[int][]int) {
	byHop = make(map[int][]int, len(targets))
	for _, t := range targets {
		if t == n.id {
			continue
		}
		h := routeHop(n.id, t, n.sys.fanin)
		if _, seen := byHop[h]; !seen {
			hops = append(hops, h)
			byHop[h] = nil
		}
		if t != h {
			byHop[h] = append(byHop[h], t)
		}
	}
	sort.Ints(hops)
	return hops, byHop
}

// consensusFrameLocked assembles one tree-routed consensus frame bound
// for hop: a msgGCSync sub carrying the trailer delta against the hop's
// piggyback estimate plus the varint relay list of destinations past the
// hop (appended after the trailer; a flat or reverse delta simply has no
// trailing bytes), and a msgGCFloor sub when the hop owes an issued
// epoch. The hop incorporates the delta and forwards each remaining
// destination one hop onward with a delta recomputed from its own merged
// clocks — the interior-node merging that caps any node's per-round
// consensus fan-out at its tree degree instead of the machine size.
// Requires n.mu.
func (n *Node) consensusFrameLocked(hop int, relay []int) *frameBuilder {
	var w wbuf
	putTrailer(&w, &n.trailerBuf, n.vc, n.deltaForLocked(n.knownVC[hop]))
	if len(relay) > 0 {
		w.uv(uint64(len(relay)))
		for _, t := range relay {
			w.uv(uint64(t))
		}
	}
	f := n.newFrame()
	f.add(msgGCSync, w.b)
	if co := n.sys.acq; co != nil {
		if floor, ok := co.pendingFloorFor(hop); ok {
			var fw wbuf
			putVC(&fw, floor)
			f.add(msgGCFloor, fw.b)
		}
	}
	return f
}

// gcSpinSteps bounds the backpressure loop of gcSyncHook: a pressured
// node runs at most this many consensus steps waiting for the consensus
// to catch up, so a consensus stalled on a thread that only this node can
// unblock (e.g. a condvar waiter expecting our signal) can never livelock
// the application.
const gcSpinSteps = 512

// gcStallNap is how long the backpressure loop sleeps after its first
// consensus step that shows no progress; each further stalled step in a
// row doubles the nap, and gcStallSteps of them give up (about 2.5 ms of
// naps in all). The stalled loop sleeps instead of yielding:
// runtime.Gosched puts the spinner on the global run queue, which its own
// P takes from before it steals, so peer goroutines queued on a P whose
// thread the host has descheduled never run while it spins, and a stall
// the host's load causes looks exactly like a consensus that is really
// stuck. A sleeping goroutine leaves its P idle to steal them, and the
// growing nap outlasts a descheduled thread's wait for the CPU.
const (
	gcStallNap   = 20 * time.Microsecond
	gcStallSteps = 8
)

// gcSyncHook runs after every application-side synchronization operation:
// it reports the calling thread's clock to the coordinator (the clock is
// genuinely on the wire in the operation's request), processes any
// announced epoch this node has not purged yet — the node's side of the
// epoch consensus, piggybacked on the operation's grant — and, when the
// coordinator asks for a push round, sends consensus-sync deltas to the
// quiet nodes holding the floor back. While this node's own retained
// chain sits far past the trigger, the hook additionally applies
// backpressure, yielding the processor so the peers' protocol servers can
// take their side of the consensus (real TreadMarks stalls the allocating
// process until the garbage-collection consensus completes); the chain
// peak therefore stays bounded by the trigger, not by how fast one
// thread can race ahead of the scheduler. Must be called WITHOUT n.mu
// held.
//
// spin must be FALSE at call sites where the application still holds a
// lock (the tail of Acquire and CondWait, condition notifies): stalling
// there stretches the critical section, piles island-mates onto the
// local handoff queue — whose priority over the global chain would then
// starve every other island's acquire, freezing the very consensus the
// backpressure is waiting for (a livelock the hybrid TSP surfaced).
// Release/semaphore/flush tails hold nothing and are where the
// backpressure lives.
func (c *Client) gcSyncHook(spin bool) {
	n := c.n
	co := n.sys.acq
	if co == nil {
		return
	}
	c.gcSyncOnce()
	if !spin {
		return
	}
	limit := 4 * co.pressure
	if int64(c.retainedChain()) <= limit {
		return
	}
	// Backpressure: yield while the consensus is demonstrably advancing
	// (nodes purging, epochs announcing), re-running a consensus step
	// every few yields, and sleep while it is not. A consensus stuck on a
	// thread only the application can unblock — a condvar waiter whose
	// wake depends on this very thread — makes no progress, and the loop
	// gives up after gcStallSteps naps instead of stalling the
	// application (or flooding the wire with retries; see pushGap).
	prog := co.progress()
	stalls := 0
	for step := 0; step < gcSpinSteps; step++ {
		select {
		case <-n.sys.done:
			panic(abortError{cause: "switch shut down"})
		default:
		}
		if stalls == 0 {
			for i := 0; i < 8; i++ {
				runtime.Gosched()
			}
		} else {
			time.Sleep(gcStallNap << (stalls - 1))
		}
		c.gcSyncOnce()
		if int64(c.retainedChain()) <= limit {
			return
		}
		if p := co.progress(); p != prog {
			prog, stalls = p, 0
		} else if stalls++; stalls >= gcStallSteps {
			return
		}
	}
}

// retainedChain returns the node's longest retained per-creator interval
// list — what the backpressure loop bounds.
func (c *Client) retainedChain() int {
	n := c.n
	n.mu.Lock()
	defer n.mu.Unlock()
	chain := 0
	for _, have := range n.intervals {
		if len(have) > chain {
			chain = len(have)
		}
	}
	return chain
}

// gcSyncOnce is one consensus step: report, process a pending epoch, send
// any requested push deltas.
func (c *Client) gcSyncOnce() {
	n := c.n
	co := n.sys.acq
	n.mu.Lock()
	vc := n.vc.clone()
	n.mu.Unlock()
	floor, pending, push := co.report(n.id, vc, true)
	if pending {
		var done VectorClock
		func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			done = n.acqEpoch(c, floor, false, &n.stats.GCAcqEpochs)
		}()
		if done != nil {
			// Only the client that actually FINISHED the purge acknowledges:
			// the coordinator free-gates on this, and an island-mate that
			// found the epoch claimed — or a node with pages still waiting
			// on a lagging home — must not vouch for an unfinished purge.
			co.notePurged(n.id, done)
		}
	}
	if len(push) > 0 && n.gcTreeConsensus() {
		// Hierarchical push: instead of one datagram per quiet node —
		// O(P) from the pusher every round, O(P²) consensus traffic as
		// rounds scale with the node count — route the round through the
		// combining tree. The pusher sends ONE frame per first hop
		// (children subtrees and the parent, at most fanin+1 of them);
		// each hop incorporates the delta and relays the destinations
		// beyond it with deltas recomputed from its own merged state, so
		// every node's per-round fan-out is bounded by its tree degree
		// and round traffic totals O(P) frames along tree edges.
		n.mu.Lock()
		defer n.mu.Unlock()
		hops, byHop := n.routeTargetsLocked(push)
		for _, h := range hops {
			f := n.consensusFrameLocked(h, byHop[h])
			n.noteSentLocked(h)
			n.stats.GCSyncPushes++
			// Sent under mu: atomic with the estimate update.
			f.sendAt(h, c.clk.Now())
		}
		return
	}
	for _, j := range push {
		// One delta per quiet node, exactly like a flush notice: their
		// servers incorporate it in wire order, raising their clocks past
		// the pressured node's intervals so the consensus floor can
		// advance without waiting for their application threads.
		func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			// The frame coalesces the push delta with a pending-floor
			// announcement for the same peer, so a quiet node both raises
			// its clock and learns of the epoch it owes in a single datagram.
			f := n.consensusFrameLocked(j, nil)
			n.noteSentLocked(j)
			n.stats.GCSyncPushes++
			// Sent under mu: atomic with the estimate update.
			f.sendAt(j, c.clk.Now())
		}()
	}
}

// handleGCSync runs on a quiet node's protocol server: incorporate the
// pushed delta (raising this node's clock), report the new clock, and —
// if an issued epoch is pending here and no application fetch is in
// flight — run it flush-only right now, so a node parked on a condition
// variable or deep in a compute phase neither holds the consensus floor
// nor gates the next announcement. A purge that must validate (fetch
// diffs) cannot run in server context — a server cannot block on the
// network — so gcCanFlushAllLocked defers per page: a node homing
// covered-owing pages, or holding pages whose home has not purged the
// floor, leaves the epoch to its application thread.
func (n *Node) handleGCSync(m *network.Message) {
	n.gcFloorAttemptServer(n.gcSyncExchange(m))
}

// gcSyncExchange is handleGCSync's share under n.mu — incorporate, reverse
// delta, relays; it returns the node's clock afterwards.
func (n *Node) gcSyncExchange(m *network.Message) VectorClock {
	r := rbuf{b: m.Payload}
	at := m.Arrive + n.sys.plat.RequestService
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	n.takeTrailerLocked(&r, m.From)
	// Tree-routed pushes append the varint relay list after the trailer
	// (flat pushes and reverse deltas end with the trailer).
	var relay []int
	if !r.done() {
		cnt := r.needCount(r.uvi(), 1)
		relay = make([]int, cnt)
		for i := range relay {
			t := r.uvi()
			if t >= n.sys.cfg.Procs {
				panic(wireErrf("dsm: node %d: consensus relay target %d outside %d-node system",
					n.id, t, n.sys.cfg.Procs))
			}
			relay[i] = t
		}
	}
	vc := n.vc.clone()
	// Reverse delta: a quiet node's own last intervals have never been
	// carried anywhere (deltas only travel on sends, and it is not
	// sending), so the consensus floor could never cover its writes. The
	// exchange makes the push a two-way clock-and-notice swap, exactly
	// TreadMarks' consensus round; it stops as soon as both sides are
	// current (an empty delta sends nothing).
	back := n.deltaForLocked(n.knownVC[m.From])
	// Frame the reverse delta with a pending-floor announcement for the
	// pusher, when it owes one. The send is non-blocking: a server must
	// NEVER block on a peer's bounded request queue (two servers mutually
	// blocked sending into each other's full inboxes would stall every
	// grant in the system). A dropped reverse delta only delays the
	// consensus floor — the next push round retries. Delivery is
	// all-or-nothing per envelope, and the knownVC estimate advances ONLY
	// when the frame that actually carries the delta went out — a dropped
	// frame must not leave the estimate vouching for sub-messages no peer
	// ever received, keeping the gap-free delta invariant.
	f := n.newFrame()
	if len(back) > 0 {
		var w wbuf
		putTrailer(&w, &n.trailerBuf, n.vc, back)
		f.add(msgGCSync, w.b)
	}
	if co := n.sys.acq; co != nil {
		if floor, ok := co.pendingFloorFor(m.From); ok {
			var fw wbuf
			putVC(&fw, floor)
			f.add(msgGCFloor, fw.b)
		}
	}
	if f.count() > 0 && f.trySendAt(m.From, at) && len(back) > 0 {
		n.noteSentLocked(m.From)
		n.stats.GCSyncReverse++
	}
	// Tree relay: the pusher handed this node the destinations whose
	// first hop is here; forward each remaining destination one hop
	// onward. The forwarded trailer is recomputed from OUR clocks — the
	// pushed records were incorporated above, so the relayed delta covers
	// everything the pusher wanted propagated (interior-node merging),
	// and it additionally closes any gap between this node and the next
	// hop. Non-blocking like the reverse delta: a dropped frame only
	// delays the floor, and the pusher's next paced round retries; the
	// estimate advances only on real sends.
	if len(relay) > 0 && n.gcTreeConsensus() {
		hops, byHop := n.routeTargetsLocked(relay)
		for _, h := range hops {
			rf := n.consensusFrameLocked(h, byHop[h])
			if rf.trySendAt(h, at) {
				n.noteSentLocked(h)
				n.stats.GCSyncRelays++
			}
		}
	}
	return vc
}

// handleGCFloor runs on a node's protocol server when a peer piggybacked
// a pending-floor announcement onto a consensus frame: attempt the
// server-side epoch right away instead of waiting for this node's next
// sync operation. The decoded floor keeps the announcement honest on the
// wire (its bytes are charged as GC-consensus traffic), but the
// coordinator registry remains authoritative for which floor this node
// actually owes — a stale frame can never start a purge the registry
// would not hand out itself.
func (n *Node) handleGCFloor(m *network.Message) {
	r := rbuf{b: m.Payload}
	_ = getVC(&r)
	n.gcFloorAttemptServer(n.interruptVC())
}

// interruptVC charges one interrupt and returns the node's clock.
func (n *Node) interruptVC() VectorClock {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	return n.vc.clone()
}

// gcFloorAttemptServer is the server-side epoch attempt shared by
// handleGCSync and handleGCFloor: report the node's clock, and if an
// issued epoch is pending here and no application fetch is in flight,
// run it flush-only right now.
func (n *Node) gcFloorAttemptServer(vc VectorClock) {
	co := n.sys.acq
	if co == nil {
		return
	}
	floor, pending, _ := co.report(n.id, vc, false)
	if !pending {
		return
	}
	// The TryLock is load-bearing: if the application thread is mid-fetch
	// (it holds fetchMu), a server-side purge could discard notices whose
	// diffs that fetch is about to request, opening the free-after-fetch
	// race the fetch lock exists to prevent. When the node is busy we
	// simply skip — a busy node's own hook processes the epoch shortly.
	if !n.fetchMu.TryLock() {
		return
	}
	defer n.fetchMu.Unlock()
	//nowlint:allow lockorder -- acqEpoch with serverSide=true swaps the purge closure for the flush-only gcFlushCoveredLocked before running it, so the gcPurgePagesLocked path that re-takes fetchMu is unreachable under this TryLock; the analyzer cannot see past the value dependency
	if done := n.acqEpochServer(floor); done != nil {
		co.notePurged(n.id, done)
	}
}

// acqEpochServer is the protocol-server variant used by the consensus
// push (handleGCSync): the purge is flush-only and never releases n.mu —
// a server cannot block on network replies. The caller must hold fetchMu;
// n.mu is taken here, by defer like every server path (incorporateWire).
func (n *Node) acqEpochServer(floor VectorClock) VectorClock {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.acqEpoch(nil, floor, true, &n.stats.GCAcqEpochs)
}

// acqEpoch processes one announced epoch on this node — gc.go's three steps
// — and counts a newly begun one in *epochs (GCEpochs for an episode's own
// floor, GCAcqEpochs otherwise). It returns the floor whose purge it
// COMPLETED, for the caller to acknowledge — nil when there is none: the
// floor was already covered (an island-mate or the server claimed it), or
// pages still wait on homes that have not purged it. Requires n.mu; the
// application-thread purge (serverSide false) may release and reacquire it
// around its diff-fetch wave.
//
// Two things are published at two times. The home registry entry is written
// at the end of the FIRST pass (gcCollectLocked): a node's own homed pages
// never wait, so two nodes homing each other's pages cannot wait on each
// other. The acknowledgment waits for the last page: the node holds the
// owed floor and the homes it waits for, every later step costs one
// registry read a waited-for home — no page scan — and once all have
// published ONE more pass flushes what is left. A waiting node finishes the
// floor it began even when the coordinator already hands out a larger one.
func (n *Node) acqEpoch(c *Client, floor VectorClock, serverSide bool, epochs *int64) VectorClock {
	owed := n.gcAcqOwed
	if owed != nil {
		for _, h := range n.gcAcqLag {
			if !n.sys.purged.covers(h, owed) {
				return nil
			}
		}
		floor = owed
	} else if n.gcPurgeVC != nil && floor.dominatedBy(n.gcPurgeVC) {
		return nil
	}
	if serverSide {
		if !n.gcCanFlushAllLocked(floor) {
			// Some covered-owing copy cannot be flushed — it must be kept,
			// is homed here (homes must validate), or its home has not
			// purged the floor yet — and a validating purge fetches diffs,
			// which a server cannot block on. Leave the epoch to the
			// application thread.
			return nil
		}
		if !floor.dominatedBy(n.vc) {
			// A stale push raced a just-issued barrier/fork episode: node
			// 0 folds the episode floor into the coordinator baseline
			// BEFORE this node's departure/fork delta arrives, so a push
			// processed in that window hands us a floor covering intervals
			// we have not incorporated yet. The episode delivery itself
			// will purge past this floor moments later; skip.
			return nil
		}
	} else if !floor.dominatedBy(n.vc) {
		// Impossible on the application thread: the floor is a min over
		// reported clocks (ours included) merged with episode floors whose
		// episodes this thread has already incorporated.
		panic(fmt.Sprintf("dsm: node %d epoch floor %v above local clock %v", n.id, floor, n.vc))
	}
	var lag []int
	purge := func() { lag = n.gcPurgePagesLocked(c, floor) }
	if serverSide {
		// A node reached by a push is quiet — parked on a condition
		// variable or deep in a compute phase — and gcCanFlushAllLocked
		// held, so every covered copy flushes, which needs no network.
		purge = func() { n.gcFlushCoveredLocked(floor) }
	}
	if owed != nil {
		// The finishing pass may release n.mu: claim the owed floor, so no
		// island-mate or server runs a second or acknowledges an unfinished one.
		n.gcAcqOwed, n.gcAcqLag = nil, nil
		purge()
		n.pruneGCPagesLocked()
	} else {
		n.gcCollectLocked(floor, purge)
		*epochs++
	}
	if lag != nil {
		n.gcAcqOwed, n.gcAcqLag = floor, lag
		return nil
	}
	return floor
}
