package dsm

import (
	"fmt"

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
		ls = &lockState{lastReq: n.lockMgr(id)}
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
		if n.router == nil {
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
		c.lockGranted(entered)
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
		c.lockGranted(entered)
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
			if n.router == nil {
				// One thread per node: the tail being this node with the
				// token absent is a protocol bug.
				panic(fmt.Sprintf("dsm: node %d chain tail for lock %d but token absent", n.id, id))
			}
			// Multi-client: the chain already ends here — a grant is in
			// flight to an island-mate (a condition-variable wake whose
			// transfer made this node the tail). Queue behind it; the
			// release-side handoff will grant us through selfReply.
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

	m := c.recvReply(msgLockGrant, c.tag)
	r := rbuf{b: m.Payload}
	if got := r.i32(); got != id {
		panic(fmt.Sprintf("dsm: node %d got grant for lock %d while acquiring %d", n.id, got, id))
	}
	r.u32() // tag: already matched by routing
	senderVC, recs := getTrailer(&r)
	n.mu.Lock()
	n.incorporateLocked(recs, senderVC)
	n.noteHeardLocked(m.From, senderVC)
	ls.haveToken = true
	ls.held = true
	ls.holderTag = c.tag
	ls.reqOutstanding = false
	n.mu.Unlock()
	c.clk.Advance(c.costs.Lock)
	c.lockGranted(entered)
	c.gcSyncHook(false) // lock now held: never stall here
}

// lockGranted books an acquire on the LockWait ledger: the client clock READ
// at the call and at the grant, never advanced for the measurement.
func (c *Client) lockGranted(entered sim.Time) {
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
	n.mu.Lock()
	ls := n.lockFor(id)
	if !ls.held {
		panic(fmt.Sprintf("dsm: node %d released lock %d it does not hold", n.id, id))
	}
	n.closeIntervalLocked()
	c.handoffLocked(ls, id)
	c.gcSyncHook(true) // token already handed off: safe to apply backpressure
}

// handoffLocked performs the release-side lock handoff: a parked
// island-mate takes ownership first (local bus-scale transfer), otherwise
// a pending forwarded request takes the token, otherwise the lock simply
// becomes free with the token cached. Requires n.mu held; releases it.
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
		rel := ls.localRelease
		n.mu.Unlock()
		w.ch <- localWake{rel: rel}
		return
	}
	ls.held = false
	ls.localStreak = 0
	// The token leaves this node (or becomes free): any still-parked
	// island-mates re-contend through the global chain — a local waiter
	// may never be left parked with no holder to wake it.
	waiters := ls.localQ
	ls.localQ = nil
	rel := ls.localRelease
	if len(ls.pending) > 0 {
		p := ls.pending[0]
		ls.pending = ls.pending[1:]
		ls.haveToken = false
		n.sendGrantLocked(id, p.from, p.tag, p.vc, c.clk.Now())
	}
	n.mu.Unlock()
	for _, w := range waiters {
		w.ch <- localWake{rel: rel, retry: true}
	}
}

// grantPayloadLocked builds a lock-grant message body: lock id, the
// grantee's reply tag, our vector clock, and every interval the requester
// (whose clock is reqVC) lacks. Grants are exact deltas (relative to the
// requester's own reported clock) so they never update the knownVC
// estimates: estimates may only grow with request-class sends, whose
// per-pair FIFO ordering makes the estimate sound (a reply-class grant
// could overtake an in-flight request-class delta and leave the receiver
// with an interval gap).
func (n *Node) grantPayloadLocked(id int, tag uint32, reqVC VectorClock) []byte {
	var w wbuf
	w.i32(id)
	w.u32(tag)
	putTrailer(&w, n.vc, n.deltaForLocked(reqVC))
	return w.b
}

// sendGrantLocked delivers a grant from protocol-server context at virtual
// time at, using the self-reply channel when the grantee is this node
// (e.g. a manager acquiring its own lock via a condition-variable wake).
func (n *Node) sendGrantLocked(id int, to int, tag uint32, reqVC VectorClock, at sim.Time) {
	payload := n.grantPayloadLocked(id, tag, reqVC)
	n.sendOrSelfLocked(to, msgLockGrant, payload, at)
}

// sendOrSelfLocked sends a reply-class message, short-circuiting
// to the node's own self-reply channel when to == n.id (managers never
// talk to themselves over the wire).
func (n *Node) sendOrSelfLocked(to, typ int, payload []byte, at sim.Time) {
	if to == n.id {
		n.selfReply <- &network.Message{From: n.id, To: n.id, Type: typ, Payload: payload, Send: at, Arrive: at}
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
		ls.haveToken = false
		n.sendGrantLocked(id, requester, tag, reqVC, at)
		return
	}
	ls.pending = append(ls.pending, pendingReq{from: requester, tag: tag, vc: reqVC})
}

func (n *Node) chargeInterruptLocked() {
	n.stats.Interrupts++
	n.clock.Advance(n.sys.plat.Interrupt)
}
