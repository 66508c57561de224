package dsm

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
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
// operation, runs the epoch (acqEpochLocked, gc.go's three steps). A
// barrier root or fork master announces its merged clock the same way
// (noteIssued).
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
//     nobody asked for — and the acknowledgment waits with it
//     (acqEpochLocked), so nothing under F is freed while any copy could
//     still fault on it.
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
	// homes[i] is the merged floor node i's homed pages reflect, published
	// after each first pass, before purged[i]: the flush gate (home.go).
	homes []VectorClock
	moved chan struct{} // closed, and replaced, by every publish: wakes awaitHome
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
	co := &acqCoord{pressure: int64(pressure), moved: make(chan struct{}),
		baseline: newVC(procs), episode: newVC(procs), pushGap: int64(procs)}
	for i := 0; i < procs; i++ {
		co.reported = append(co.reported, newVC(procs))
		co.purged = append(co.purged, newVC(procs))
		co.homes = append(co.homes, newVC(procs))
	}
	return co
}

// publish records that node id's own pages reflect the floor, right after
// the first pass (gcCollectLocked): the registry never runs ahead of them.
func (co *acqCoord) publish(id int, floor VectorClock) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.homes[id].merge(floor)
	close(co.moved)
	co.moved = make(chan struct{})
}

// homeCovers reports whether the home's pages reflect every write under
// floor, so that peers may flush their copies.
func (co *acqCoord) homeCovers(home int, floor VectorClock) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return floor.dominatedBy(co.homes[home])
}

// awaitHome blocks until the home has published a purge covering floor,
// waking at each publish, and reports false if done closes first.
func (co *acqCoord) awaitHome(home int, floor VectorClock, done <-chan struct{}) bool {
	for {
		co.mu.Lock()
		ok, moved := floor.dominatedBy(co.homes[home]), co.moved
		co.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-moved:
		case <-done:
			return false
		}
	}
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
// clocks hold the consensus floor back while the announcement gate is open
// and retirable pressure has built past the threshold. The push —
// TreadMarks' "interrupt every process for the consensus" — is what lets
// programs whose other threads sit parked on a condition variable or
// semaphore still retire the busy thread's interval chains. A round never
// starts while the gate is closed: a push cannot purge (only a node's
// application thread does), so it cannot open the gate or bring the next
// announcement closer.
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
	// flush gate (the home registry), which enforces
	// home-validates-first page by page, so any node may be handed a
	// pending floor immediately.
	if !co.baseline.dominatedBy(co.purged[id]) {
		floor = co.baseline.clone()
		pending = true
	}
	// Push-round check: raw pressure counts every interval any node has
	// reported beyond the issued baseline — the metadata actually
	// accumulating somewhere — while the announcement path is blocked by a
	// floor stale clocks hold back.
	if !wantPush || co.reports-co.pushStamp < co.pushGap || !co.gateOpenLocked() {
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
		if !union.dominatedBy(co.reported[i]) {
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

// routeTargetsLocked groups consensus destinations by their first
// combining-tree hop from this node, dropping the node itself. Hops come
// back sorted so send order is deterministic. byHop[h] lists the FINAL
// destinations to be relayed past h — h itself, always a recipient of
// the push, is not in its own list.
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

// sendGCSyncLocked sends one msgGCSync to hop — a push, a relayed push or
// a reverse delta: the trailer carrying delta (the caller cuts it against
// the hop's piggyback estimate) plus the varint relay list of destinations
// past the hop, appended after the trailer (a reverse delta, or a push to a
// final destination, has no trailing bytes). The hop incorporates the
// delta and forwards each remaining destination one hop onward with a delta
// recomputed from its own merged clocks — the interior-node merging that
// caps any node's per-round consensus fan-out at its tree degree instead of
// the machine size. Sends never block or drop, so the estimate advances
// with the send, atomically under n.mu.
func (n *Node) sendGCSyncLocked(hop int, delta []*interval, relay []int, at sim.Time) {
	w := wbuf{pool: &n.sys.pool}
	putTrailer(&w, n.vc, delta)
	putRelay(&w, relay)
	n.noteSentLocked(hop)
	n.ep.SendAt(hop, msgGCSync, network.ClassRequest, w.b, at)
}

// routeGCSyncLocked sends one push per first combining-tree hop toward
// targets, each with the delta against the hop's estimate and the
// destinations to relay past it, and returns how many it sent.
func (n *Node) routeGCSyncLocked(targets []int, at sim.Time) int64 {
	hops, byHop := n.routeTargetsLocked(targets)
	for _, h := range hops {
		n.sendGCSyncLocked(h, n.deltaForLocked(n.knownVC[h]), byHop[h], at)
	}
	return int64(len(hops))
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
			done = c.acqEpochLocked(floor, &n.stats.GCAcqEpochs)
		}()
		if done != nil {
			// Only the client that actually FINISHED the purge acknowledges:
			// the coordinator free-gates on this, and an island-mate that
			// found the epoch claimed — or a node with pages still waiting
			// on a lagging home — must not vouch for an unfinished purge.
			co.notePurged(n.id, done)
		}
	}
	if len(push) == 0 {
		return
	}
	// Hierarchical push: instead of one datagram per quiet node — O(P)
	// from the pusher every round, O(P²) consensus traffic as rounds
	// scale with the node count — route the round through the combining
	// tree. The pusher sends ONE push per first hop (children subtrees
	// and the parent, at most fanin+1 of them); each hop incorporates the
	// delta and relays the destinations beyond it with deltas recomputed
	// from its own merged state, so every node's per-round fan-out is
	// bounded by its tree degree and round traffic totals O(P) messages
	// along tree edges. On a machine the flat barrier spans (≤ fanin+1
	// nodes) a push from the root goes straight to every target and a
	// push from a leaf goes to node 0, which relays it.
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.GCSyncPushes += n.routeGCSyncLocked(push, c.clk.Now())
}

// handleGCSync runs on a quiet node's protocol server: incorporate the
// pushed delta (raising this node's clock), answer with a reverse delta,
// relay the push onward, and report the new clock, so a node parked on a
// condition variable or deep in a compute phase does not hold the consensus
// floor back. The server never purges: a floor this node owes waits for its
// application thread's next synchronization operation, or for an episode.
func (n *Node) handleGCSync(m *network.Message) {
	r := rbuf{b: m.Payload}
	at := m.Arrive + n.sys.plat.RequestService
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	n.takeTrailerLocked(&r, m.From)
	relay := getRelay(&r, n.sys.cfg.Procs)
	n.sys.pool.put(m.Payload)
	// Reverse delta: a quiet node's own last intervals have never been
	// carried anywhere (deltas only travel on sends, and it is not
	// sending), so the consensus floor could never cover its writes. The
	// exchange makes the push a two-way clock-and-notice swap, exactly
	// TreadMarks' consensus round; it stops as soon as both sides are
	// current (an empty delta sends nothing).
	if back := n.deltaForLocked(n.knownVC[m.From]); len(back) > 0 {
		n.sendGCSyncLocked(m.From, back, nil, at)
		n.stats.GCSyncReverse++
	}
	// Tree relay: the pusher handed this node the destinations whose
	// first hop is here; forward each remaining destination one hop
	// onward. The forwarded trailer is recomputed from OUR clocks — the
	// pushed records were incorporated above, so the relayed delta covers
	// everything the pusher wanted propagated (interior-node merging),
	// and it additionally closes any gap between this node and the next
	// hop.
	if len(relay) > 0 {
		n.stats.GCSyncRelays += n.routeGCSyncLocked(relay, at)
	}
	if co := n.sys.acq; co != nil {
		co.report(n.id, n.vc, false)
	}
}

// acqEpochLocked runs gc.go's three steps for an announced floor on the
// application thread and returns the floor whose purge it COMPLETED, for
// the caller to acknowledge — nil while pages wait, or when there is
// nothing to do yet. The floor it works on is the one this node owes, once
// every home it waits for has published, or else the announced one unless a
// purge covering it has begun here. A newly begun epoch counts in *epochs
// (GCEpochs for an episode's own floor, GCAcqEpochs otherwise). Requires
// n.mu, which the purge releases around its diff-fetch wave.
//
// Two things are published at two times. The home registry entry is written
// at the end of the FIRST pass (gcCollectLocked): a node's own homed pages
// never wait, so two nodes homing each other's pages cannot wait on each
// other. The acknowledgment waits for the last page: the node holds the
// owed floor and the homes it waits for, every later step costs one
// registry read a waited-for home — no page scan — and once all have
// published ONE more pass flushes what is left. A waiting node finishes the
// floor it began even when the coordinator already hands out a larger one.
func (c *Client) acqEpochLocked(floor VectorClock, epochs *int64) VectorClock {
	n := c.n
	var lag []int
	if owed := n.gcAcqOwed; owed != nil {
		for _, h := range n.gcAcqLag {
			if !n.sys.acq.homeCovers(h, owed) {
				return nil
			}
		}
		// The finishing pass may release n.mu: claim the owed floor, so no
		// island-mate runs a second or acknowledges an unfinished one.
		floor = owed
		n.gcAcqOwed, n.gcAcqLag = nil, nil
		lag = n.gcPurgePagesLocked(c, floor)
		n.pruneGCPagesLocked()
	} else {
		if n.gcPurgeVC != nil && floor.dominatedBy(n.gcPurgeVC) {
			return nil
		}
		if !floor.dominatedBy(n.vc) {
			// Impossible on the application thread: the floor is a min over
			// reported clocks (ours included) merged with episode floors whose
			// episodes this thread has already incorporated.
			panic(fmt.Sprintf("dsm: node %d epoch floor %v above local clock %v", n.id, floor, n.vc))
		}
		lag = n.gcCollectLocked(c, floor)
		*epochs++
	}
	if lag != nil {
		n.gcAcqOwed, n.gcAcqLag = floor, lag
		return nil
	}
	return floor
}
