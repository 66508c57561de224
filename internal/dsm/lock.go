package dsm

import (
	"fmt"
	"slices"

	"repro/internal/network"
	"repro/internal/sim"
)

// Distributed mutex locks, Section 4.2: "Each lock has a statically
// assigned manager. The manager records which thread has most recently
// requested the lock. All lock acquire requests are sent to the manager
// and, if necessary, forwarded by the manager to the thread that last
// requested the lock." Release is lazy: the releaser propagates
// consistency information only when the next acquirer's (forwarded)
// request reaches it.
//
// An acquire therefore costs 0 messages (token already local), 2 messages
// (requester ↔ holder when the manager is one of them), or 3 messages
// (request, forward, grant) — landing in the paper's 170–700 µs window.
//
// The grant carries the critical section's data, as in the lazy hybrid
// protocol (Dwarkadas, Keleher, Cox, Zwaenepoel, ISCA '93): the diffs the
// releaser holds of the lock's pages — those its holders faulted on while
// holding it, or received on its grant — that the acquirer lacks. The
// acquirer then starts its critical section with current copies of them.
//
// Multi-client nodes (SMP islands): the node holds ONE seat in this
// protocol — the token, the chain position, the pending queue are all
// island-level — and the island's threads share it. A thread that finds
// the lock held by an island-mate parks on a local queue; a release hands
// ownership to the local queue first (an island-internal bus-scale
// handoff, no messages), and only a release with no local waiter passes
// the token to the global chain. Requests and grants carry the acquiring
// client's reply tag so concurrent acquires and condition-variable
// re-acquires from one island route back to the exact thread.

// lockState tracks one lock on one node. Manager fields are meaningful
// only on the lock's manager; holder fields on whichever node has the
// token.
type lockState struct {
	// manager side
	lastReq int // tail of the request chain; initially the manager

	// holder side
	held      bool
	holderTag uint32 // tag of the local client holding it (self-deadlock check)
	haveToken bool
	pending   []pendingReq // forwarded requests awaiting our release

	// multi-client (island) side
	localQ         []localLockWaiter // island threads awaiting a local handoff
	localRelease   sim.Time          // latest local release (bus-scale handoff coupling)
	reqOutstanding bool              // a local client's acquire request is in flight
	localStreak    int               // consecutive local handoffs past a pending global request

	// the lock's data, in insertion order (grants are deterministic)
	data   []PageID
	inData map[PageID]bool
}

func (ls *lockState) addData(pid PageID) {
	if !ls.inData[pid] {
		ls.inData[pid] = true
		ls.data = append(ls.data, pid)
	}
}

// noteLockDataLocked adds faulting pages to every held lock's data.
func (c *Client) noteLockDataLocked(pgs ...*page) {
	for _, id := range c.held {
		for _, pg := range pgs {
			c.n.lockFor(id).addData(pg.id)
		}
	}
}

// localHandoffCap bounds how many consecutive releases may hand the token
// to a parked island-mate while a forwarded global request waits: local
// handoff stays the fast path (the island-internal bus transfer of the
// SMP-TreadMarks systems), but an island that keeps its local queue
// non-empty — a polling task loop does — must not starve the rest of the
// cluster out of the lock indefinitely.
const localHandoffCap = 8

// localWake is what a parked island thread receives: either ownership of
// the lock (retry false; rel is the handing-over release time) or notice
// that the token left the island under the fairness cap (retry true; the
// waiter re-contends through the global chain like any remote acquirer).
type localWake struct {
	rel   sim.Time
	retry bool
}

// localLockWaiter is one island thread parked for a local lock handoff;
// the releaser transfers ownership under n.mu and posts its release time.
type localLockWaiter struct {
	tag uint32
	ch  chan localWake
}

type pendingReq struct {
	from int
	tag  uint32
	vc   VectorClock
}

func (n *Node) lockMgr(id int) int {
	p := n.sys.cfg.Procs
	return ((id % p) + p) % p
}

// lockFor returns (creating on demand) this node's state for lock id.
func (n *Node) lockFor(id int) *lockState {
	ls, ok := n.locks[id]
	if !ok {
		ls = &lockState{lastReq: n.lockMgr(id), inData: map[PageID]bool{}}
		if n.id == n.lockMgr(id) {
			ls.haveToken = true // the token starts at the manager
		}
		n.locks[id] = ls
	}
	return ls
}

// Acquire obtains lock id with acquire (consistency-importing) semantics.
func (c *Client) Acquire(id int) {
	n := c.n
	entered := c.clk.Now()
retry:
	n.mu.Lock()
	ls := n.lockFor(id)
	if ls.held || ls.reqOutstanding {
		if n.oneClientLocked() {
			panic(fmt.Sprintf("dsm: node %d re-acquired held lock %d", n.id, id))
		}
		if ls.held && ls.holderTag == c.tag {
			panic(fmt.Sprintf("dsm: node %d client re-acquired held lock %d", n.id, id))
		}
		// An island-mate holds the lock (or is already fetching the
		// token): park on the local queue. The waker transfers ownership
		// under n.mu, so a non-retry wake means the lock is ours.
		ch := make(chan localWake, 1)
		ls.localQ = append(ls.localQ, localLockWaiter{tag: c.tag, ch: ch})
		n.stats.LockAcquires++
		n.stats.LockLocal++
		n.mu.Unlock()
		var w localWake
		select {
		case w = <-ch:
		case <-n.sys.done:
			panic(abortError{cause: "switch shut down"})
		}
		c.clk.AdvanceTo(w.rel)
		if w.retry {
			// The fairness cap sent the token to the global chain: this
			// was not a handoff. Contend again — the island's next global
			// request queues behind whoever the token went to.
			goto retry
		}
		c.clk.Advance(c.costs.Lock)
		c.lockGranted(id, entered)
		c.gcSyncHook(false) // lock now held: never stall here
		return
	}
	if ls.haveToken && len(ls.pending) == 0 {
		// Free local re-acquire: no messages, no new consistency info.
		ls.held = true
		ls.holderTag = c.tag
		n.stats.LockAcquires++
		n.stats.LockLocal++
		rel := ls.localRelease
		n.mu.Unlock()
		c.clk.AdvanceTo(rel)
		c.clk.Advance(c.costs.Lock)
		c.lockGranted(id, entered)
		c.gcSyncHook(false) // lock now held: never stall here
		return
	}
	n.stats.LockAcquires++
	ls.reqOutstanding = true
	mgr := n.lockMgr(id)
	myVC := n.vc.clone()
	if n.id == mgr {
		// Run the manager logic locally: forward straight to the chain
		// tail (saves the request hop, as in TreadMarks).
		prev := ls.lastReq
		ls.lastReq = n.id
		if prev == n.id {
			if n.oneClientLocked() {
				// One thread per node: the tail being this node with the
				// token absent is a protocol bug.
				panic(fmt.Sprintf("dsm: node %d chain tail for lock %d but token absent", n.id, id))
			}
			// Multi-client: the chain already ends here — a grant is in
			// flight to an island-mate (a condition-variable wake whose
			// transfer made this node the tail). Queue behind it; the
			// release-side handoff will grant us through the router.
			ls.pending = append(ls.pending, pendingReq{from: n.id, tag: c.tag, vc: myVC})
			n.mu.Unlock()
		} else {
			var w wbuf
			w.i32(id)
			w.i32(n.id) // requester
			w.u32(c.tag)
			putVC(&w, myVC)
			n.mu.Unlock()
			n.ep.SendAt(prev, msgAcqFwd, network.ClassRequest, w.b, c.clk.Now())
		}
	} else {
		var w wbuf
		w.i32(id)
		w.u32(c.tag)
		putVC(&w, myVC)
		n.mu.Unlock()
		n.ep.SendAt(mgr, msgAcqReq, network.ClassRequest, w.b, c.clk.Now())
	}

	c.takeGrant(c.recvReply(msgLockGrant, c.tag), id, true)
	c.clk.Advance(c.costs.Lock)
	c.lockGranted(id, entered)
	c.gcSyncHook(false) // lock now held: never stall here
}

// lockGranted books an acquire on the LockWait ledger — the client clock READ
// at the call and at the grant, never advanced for the measurement — and
// marks the lock held by this client.
func (c *Client) lockGranted(id int, entered sim.Time) {
	c.held = append(c.held, id)
	c.n.mu.Lock()
	c.n.stats.LockWait += c.clk.Now() - entered
	c.n.mu.Unlock()
}

// Release releases lock id with release (consistency-exporting) semantics.
// On a multi-client node, a parked island-mate takes the lock first (a
// local bus-scale handoff); otherwise, if an acquire request was forwarded
// here while the lock was held, the token and the consistency delta go
// straight to that requester.
func (c *Client) Release(id int) {
	n := c.n
	func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		ls := n.lockFor(id)
		if !ls.held {
			panic(fmt.Sprintf("dsm: node %d released lock %d it does not hold", n.id, id))
		}
		c.held = slices.DeleteFunc(c.held, func(h int) bool { return h == id })
		n.closeIntervalLocked()
		c.handoffLocked(ls, id)
	}()
	c.gcSyncHook(true) // token already handed off: safe to apply backpressure
}

// handoffLocked performs the release-side lock handoff: a parked
// island-mate takes ownership first (local bus-scale transfer), otherwise
// a pending forwarded request takes the token, otherwise the lock simply
// becomes free with the token cached. Requires n.mu held and keeps it: a
// wake never blocks (each parked waiter's channel holds one), and a grant
// that meets a downed switch unwinds through the caller's deferred Unlock.
func (c *Client) handoffLocked(ls *lockState, id int) {
	n := c.n
	if t := c.clk.Now(); t > ls.localRelease {
		ls.localRelease = t
	}
	if len(ls.localQ) > 0 && (len(ls.pending) == 0 || ls.localStreak < localHandoffCap) {
		// Ownership transfer to a parked island-mate: held stays true so
		// the protocol server can never hand the token away in between.
		if len(ls.pending) > 0 {
			ls.localStreak++
		}
		w := ls.localQ[0]
		ls.localQ = ls.localQ[1:]
		ls.holderTag = w.tag
		w.ch <- localWake{rel: ls.localRelease}
		return
	}
	ls.held = false
	ls.localStreak = 0
	// The token leaves this node (or becomes free): any still-parked
	// island-mates re-contend through the global chain — a local waiter
	// may never be left parked with no holder to wake it.
	waiters := ls.localQ
	ls.localQ = nil
	if len(ls.pending) > 0 {
		p := ls.pending[0]
		ls.pending = ls.pending[1:]
		ls.haveToken = false
		n.sendGrantLocked(ls, id, p.from, p.tag, p.vc, c.clk.Now())
	}
	for _, w := range waiters {
		w.ch <- localWake{rel: ls.localRelease, retry: true}
	}
}

// takeGrant incorporates a lock grant on the acquiring client's node and
// marks the lock held by the client; requested says it answers this node's
// outstanding request, not a condition wake. Then it files the grant's
// data, under fetchMu like a fault round: every diff a page here still
// owes stays on its interval record for the next grant to forward, the page
// joins the lock's data, and a copy with no twin whose missing notices the
// grant all covers has them applied in causal order. Any other page faults
// as it would have.
func (c *Client) takeGrant(m *network.Message, id int, requested bool) {
	n := c.n
	r := rbuf{b: m.Payload}
	if got := r.i32(); got != id {
		panic(fmt.Sprintf("dsm: node %d got grant for lock %d while acquiring %d", n.id, got, id))
	}
	r.u32() // tag: already matched by routing
	// The store-backed decode needs n.mu, the data's fetchMu precedes it.
	var senderVC VectorClock
	var recs []*interval
	func() {
		n.mu.Lock()
		defer n.mu.Unlock() // a malformed grant unwinds with n.mu free
		senderVC, recs = getVC(&r), n.decodeRecordsLocked(&r)
	}()
	data := getGrantData(&r, len(recs), len(n.pages))
	if data != nil {
		n.fetchMu.Lock()
		defer n.fetchMu.Unlock()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.incorporateLocked(recs, senderVC)
	n.noteHeardLocked(m.From, senderVC)
	ls := n.lockFor(id)
	ls.haveToken, ls.held, ls.holderTag = true, true, c.tag
	if requested {
		ls.reqOutstanding = false
	}
	diffs := make(map[diffKey][]byte, len(data))
	var pgs []*page
	for _, gd := range data {
		diffs[diffKey{gd.pid, recs[gd.rec].creator, recs[gd.rec].seq}] = gd.data
		ls.addData(gd.pid)
		if len(pgs) == 0 || pgs[len(pgs)-1].id != gd.pid { // a page's diffs travel together
			pgs = append(pgs, n.pageFor(gd.pid))
		}
	}
	for _, pg := range pgs {
		covered := pg.data != nil && pg.twin == nil && len(pg.missing) > 0
		for _, m := range pg.missing {
			_, ok := diffs[diffKey{pg.id, m.creator, m.seq}]
			n.retainDiffLocked(m, pg.id, diffs)
			covered = covered && ok
		}
		if covered {
			missing := slices.Clone(pg.missing)
			c.applyDiffsLocked(pg, missing, missing, diffs, false)
		}
	}
}

// sendGrantLocked delivers a lock grant at virtual time at, through the
// node's own reply router when the grantee is this node (e.g. a manager
// acquiring its own lock via a condition-variable wake): lock id, the
// grantee's reply tag, our vector clock, and every interval the requester
// (whose clock is reqVC) lacks. Grants are exact deltas (relative to the
// requester's own reported clock) so they never update the knownVC
// estimates: estimates may only grow with request-class sends, whose
// per-pair FIFO ordering makes the estimate sound (a reply-class grant
// could overtake an in-flight request-class delta and leave the receiver
// with an interval gap). To another node the lock's data follow, and leave
// with the token.
func (n *Node) sendGrantLocked(ls *lockState, id, to int, tag uint32, reqVC VectorClock, at sim.Time) {
	var w wbuf
	w.i32(id)
	w.u32(tag)
	delta := n.deltaForLocked(reqVC)
	putTrailer(&w, &n.trailerBuf, n.vc, delta)
	if to != n.id {
		at += n.putGrantDataLocked(&w, ls, delta)
		clear(ls.inData)
		ls.data = ls.data[:0]
	}
	n.sendOrSelfLocked(to, msgLockGrant, w.b, at)
}

// putGrantDataLocked appends the lock's data behind a grant's trailer: for
// each data page with notices in the delta, the diffs of all of them, when
// this node holds every one. Its own diffs are paid as in serveDiffLocked:
// the first encode costs the grant service time.
func (n *Node) putGrantDataLocked(w *wbuf, ls *lockState, delta []*interval) (cost sim.Time) {
	notices := map[PageID][]int{} // data page → the delta records naming it
	for i, ivl := range delta {
		for _, pid := range ivl.pages {
			if ls.inData[pid] {
				notices[pid] = append(notices[pid], i)
			}
		}
	}
	var out []grantDiff
	for _, pid := range ls.data {
		recs := notices[pid]
		if slices.ContainsFunc(recs, func(i int) bool {
			_, ok := delta[i].diffs[pid]
			return !ok
		}) {
			continue
		}
		for _, i := range recs {
			d, c := delta[i].diffs[pid], sim.Time(0)
			if delta[i].creator == n.id {
				d, c = n.serveDiffLocked(pid, delta[i].seq)
			}
			cost += c
			out = append(out, grantDiff{pid: pid, rec: i, data: d})
		}
	}
	putGrantData(w, out)
	return cost
}

// grantFreeTokenLocked grants a cached token nobody here holds, no earlier
// than the release that freed it (a request may arrive before it).
func (n *Node) grantFreeTokenLocked(ls *lockState, id, to int, tag uint32, reqVC VectorClock, at sim.Time) {
	ls.haveToken = false
	n.sendGrantLocked(ls, id, to, tag, reqVC, max(at, ls.localRelease))
}

// sendOrSelfLocked sends a reply-class message, short-circuiting
// to the node's own reply router when to == n.id (managers never talk to
// themselves over the wire).
func (n *Node) sendOrSelfLocked(to, typ int, payload []byte, at sim.Time) {
	if to == n.id {
		n.router.route(&network.Message{From: n.id, To: n.id, Type: typ, Payload: payload, Send: at, Arrive: at}, routeKey{})
		return
	}
	n.ep.SendAt(to, typ, network.ClassReply, payload, at)
}

// handleAcqReq runs on the manager's protocol server.
func (n *Node) handleAcqReq(m *network.Message) {
	r := rbuf{b: m.Payload}
	id := r.i32()
	tag := r.u32()
	reqVC := getVC(&r)
	at := m.Arrive + n.sys.plat.RequestService

	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	n.enqueueLockRequestLocked(id, m.From, tag, reqVC, at)
}

// handleAcqFwd runs on the last holder's protocol server.
func (n *Node) handleAcqFwd(m *network.Message) {
	r := rbuf{b: m.Payload}
	id := r.i32()
	requester := r.i32()
	tag := r.u32()
	reqVC := getVC(&r)
	at := m.Arrive + n.sys.plat.RequestService

	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	ls := n.lockFor(id)
	if ls.haveToken && !ls.held {
		n.grantFreeTokenLocked(ls, id, requester, tag, reqVC, at)
		return
	}
	ls.pending = append(ls.pending, pendingReq{from: requester, tag: tag, vc: reqVC})
}

func (n *Node) chargeInterruptLocked() {
	n.stats.Interrupts++
	n.stats.IntrTime += n.sys.plat.Interrupt
	n.clock.Advance(n.sys.plat.Interrupt)
}
