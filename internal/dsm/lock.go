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
	pending   []waiter // forwarded requests awaiting our release

	// multi-client (island) side
	localQ         []*Client // island threads awaiting a local handoff
	localRelease   sim.Time  // latest local release (bus-scale handoff coupling)
	reqOutstanding bool      // a local client's acquire request is in flight
	localStreak    int       // consecutive local handoffs past a pending global request

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

func (n *Node) lockMgr(id int) int {
	p := n.sys.cfg.Procs
	return ((id % p) + p) % p
}

// lockFor returns (creating on demand) this node's state for lock id.
func (n *Node) lockFor(id int) *lockState {
	ls, ok := n.locks[id]
	if !ok {
		mgr := n.lockMgr(id)
		ls = &lockState{lastReq: mgr, haveToken: n.id == mgr, inData: map[PageID]bool{}} // the token starts at the manager
		n.locks[id] = ls
	}
	return ls
}

// Acquire obtains lock id with acquire (consistency-importing) semantics.
func (c *Client) Acquire(id int) {
	n := c.n
	entered := c.clk.Now()
	for {
		n.mu.Lock()
		ls := n.lockFor(id)
		if !ls.held && !ls.reqOutstanding && (!ls.haveToken || len(ls.pending) > 0) {
			ls.reqOutstanding = true
			n.mu.Unlock()
			c.round(msgAcqReq, syncReq{id: id}, &n.stats.LockAcquires, entered, c.costs.Lock, &n.stats.LockWait)
			break
		}
		n.stats.LockAcquires++
		n.stats.LockLocal++
		rel, retry := ls.localRelease, false
		if ls.held || ls.reqOutstanding {
			if n.oneClientLocked() || ls.held && ls.holderTag == c.tag {
				panic(fmt.Sprintf("dsm: node %d client %d re-acquired held lock %d", n.id, c.tag, id))
			}
			// An island-mate holds the lock (or is already fetching the
			// token): park on the local queue until the node's router hands
			// this thread a handoff (handOffLocked). The waker transfers
			// ownership under n.mu, so a grant means the lock is ours.
			ls.localQ = append(ls.localQ, c)
			n.mu.Unlock()
			m := c.await(routeKey{typ: msgLockGrant, key: c.tag})
			rel, retry = m.Arrive, m.Type == msgAcqReq
		} else {
			// Free local re-acquire: no messages, no new consistency info.
			ls.held, ls.holderTag = true, c.tag
			n.mu.Unlock()
		}
		c.clk.AdvanceTo(rel)
		if !retry {
			c.settle(c.costs.Lock, &n.stats.LockWait, entered)
			break
		}
		// The fairness cap sent the token to the global chain: this was
		// not a handoff. Contend again — the island's next global request
		// queues behind whoever the token went to.
	}
	c.held = append(c.held, id)
	c.gcSyncHook(false) // lock now held: never stall here
}

// ownLocked returns the state of lock id, which client c must hold; when
// c does not, it panics, and the caller's deferred Unlock frees n.mu.
func (c *Client) ownLocked(id int) *lockState {
	ls := c.n.lockFor(id)
	if !ls.held || ls.holderTag != c.tag {
		panic(fmt.Sprintf("dsm: node %d client %d does not hold lock %d", c.n.id, c.tag, id))
	}
	return ls
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
		ls := c.ownLocked(id)
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
// handoff never blocks (the router's deliver does not), and a grant that
// meets a downed switch unwinds through the caller's deferred Unlock.
func (c *Client) handoffLocked(ls *lockState, id int) {
	n := c.n
	ls.localRelease = max(ls.localRelease, c.clk.Now())
	if len(ls.localQ) > 0 && (len(ls.pending) == 0 || ls.localStreak < localHandoffCap) {
		// Ownership transfer to a parked island-mate: held stays true so
		// the protocol server can never hand the token away in between.
		if len(ls.pending) > 0 {
			ls.localStreak++
		}
		mate := ls.localQ[0]
		ls.localQ = ls.localQ[1:]
		ls.holderTag = mate.tag
		n.handOffLocked(mate, msgLockGrant, ls.localRelease)
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
		n.sendGrantLocked(ls, id, p, c.clk.Now())
	}
	for _, mate := range waiters {
		n.handOffLocked(mate, msgAcqReq, ls.localRelease)
	}
}

// handOffLocked wakes an island thread parked in Acquire through the node's
// router, under its lock-grant key, with its own note: a msgLockGrant hands
// it the lock released at rel; a msgAcqReq sends it back to the global
// chain (the fairness cap). Neither crosses the wire. Requires n.mu.
func (n *Node) handOffLocked(mate *Client, typ int, rel sim.Time) {
	mate.note = network.Message{Type: typ, Arrive: rel}
	n.router.deliver(routeKey{typ: msgLockGrant, key: mate.tag}, &mate.note)
}

// takeGrant incorporates a grant of lock or semaphore id on the client's
// node. A lock grant then marks the lock held by the client — requested
// says it answers this node's outstanding request, not a condition wake —
// and files the grant's data, under fetchMu like a fault round: every diff
// a page here still owes stays on its interval record for the next grant
// to forward, the page joins the lock's data, and a copy with no twin
// whose missing notices the grant all covers has them applied in causal
// order. Any other page faults as it would have.
func (c *Client) takeGrant(m *network.Message, id int, requested bool) {
	n := c.n
	r := rbuf{b: m.Payload}
	if got := r.i32(); got != id {
		panic(fmt.Sprintf("dsm: node %d got grant for %d while awaiting %d", n.id, got, id))
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
	data := getGrantData(&r, len(recs), n.sys.heapPages())
	if data != nil {
		n.fetchMu.Lock()
		defer n.fetchMu.Unlock()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.incorporateLocked(recs, senderVC)
	n.noteHeardLocked(m.From, senderVC)
	if m.Type == msgSemaGrant {
		return
	}
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

// lockRequestLocked is the manager's acquire policy: the request joins
// the chain behind the last requester. A client of the manager's own node
// skips the request hop, as in TreadMarks.
func (n *Node) lockRequestLocked(q *syncReq, at sim.Time) {
	ls := n.lockFor(q.id)
	prev := ls.lastReq
	ls.lastReq = q.from
	if prev == n.id {
		if q.live && n.oneClientLocked() {
			// One thread per node: the tail being this node with the
			// token absent is a protocol bug.
			panic(fmt.Sprintf("dsm: node %d chain tail for lock %d but token absent", n.id, q.id))
		}
		// The chain ends here. On a multi-client node a grant may still be
		// in flight to an island-mate (a condition-variable wake whose
		// transfer made this node the tail): the request queues behind it,
		// and the release-side handoff grants it through the router.
		n.lockHolderLocked(q, at)
		return
	}
	// Forward to the chain tail. If the waiter was itself the tail when it
	// went to sleep, the forward loops back to its own node, whose server
	// grants to the local application thread.
	var w wbuf
	putSyncReq(&w, nil, msgAcqFwd, q)
	n.ep.SendAt(prev, msgAcqFwd, network.ClassRequest, w.b, at)
}

// lockHolderLocked is the policy where a request meets the token's node:
// a free token is granted, no earlier than the release that freed it (a
// request may arrive before it); otherwise the request waits for the
// holder's release (the holder may be any client of this node).
func (n *Node) lockHolderLocked(q *syncReq, at sim.Time) {
	ls := n.lockFor(q.id)
	if ls.haveToken && !ls.held {
		ls.haveToken = false
		n.sendGrantLocked(ls, q.id, q.waiter, max(at, ls.localRelease))
		return
	}
	ls.pending = append(ls.pending, q.keep())
}
