package dsm

import (
	"repro/internal/network"
	"repro/internal/sim"
)

// Condition variables, Sections 3.2.3 and 4.2: "Each condition variable is
// associated with a lock. The lock manager maintains a queue of waiting
// threads for each condition variable. On a cond_wait, a thread releases
// the lock and contacts the manager, who inserts it in the queue of
// threads waiting on this condition variable. A cond_signal also contacts
// the manager. If there are any threads in the condition variable's queue,
// the manager removes the first thread from that queue and puts it at the
// end of the queue for the lock. The waiting thread will regain the lock
// after all previous lock acquires for the same lock are released."
//
// Multi-client nodes: a wait registration carries the waiting client's
// reply tag; the eventual wake-grant (an ordinary lock grant issued when
// the queue transfer reaches the front of the lock chain) echoes it, so
// the wake routes to the exact island thread that went to sleep even while
// island-mates acquire and release the same lock.

// condQueue lives at the associated lock's manager node.
type condQueue struct {
	waiters []semaWaiter // reuse: from, tag, vc-at-wait, arrival time
}

func (n *Node) condFor(id int) *condQueue {
	cq, ok := n.conds[id]
	if !ok {
		cq = &condQueue{}
		n.conds[id] = cq
	}
	return cq
}

// CondWait atomically releases lockID (which the caller must hold), blocks
// on condition variable condID, and re-acquires the lock before returning.
// Upon wakeup the thread contends for the lock and resumes after the
// cond_signal issuer's release, importing its consistency information
// through the normal lock-grant path.
//
// The wait registration is ACKNOWLEDGED, and the lock is released only
// after the ack: registration (request class) and the lock grant to the
// next acquirer (reply class) travel in different queues with no FIFO
// ordering between them, so a fire-and-forget registration could still
// be sitting in the manager's request queue while the next lock holder
// — who can only exist once we release — signals or broadcasts into an
// empty waiter queue and the wakeup is lost forever (the classic lost
// wakeup; observed as a rare QSORT termination deadlock). With the ack,
// any signaler acquired the lock after our registration completed, so
// its signal is enqueued at the manager strictly after our wait.
func (c *Client) CondWait(condID, lockID int) {
	n := c.n
	mgr := n.lockMgr(lockID)
	var w wbuf
	func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.stats.CondOps++
		if !n.lockFor(lockID).held {
			panic("dsm: CondWait requires the associated lock to be held")
		}
		// Release semantics: the interval closes here, and the wait carries
		// our clock so the eventual wake-grant brings us what we miss.
		n.closeIntervalLocked()
		if n.id == mgr {
			// Local registration is atomic with the release under mu.
			cq := n.condFor(condID)
			cq.waiters = append(cq.waiters, semaWaiter{from: n.id, tag: c.tag, vc: n.vc.clone()})
			c.handoffLocked(n.lockFor(lockID), lockID)
			return
		}
		w.i32(condID)
		w.i32(lockID)
		w.u32(c.tag)
		putVC(&w, n.vc)
	}()
	if n.id != mgr {
		n.ep.SendAt(mgr, msgCondWait, network.ClassRequest, w.b, c.clk.Now())
		c.recvReply(msgCondWaitAck, c.tag)
		// Registered: now free the lock — an island-mate parked locally
		// takes it first, then anyone queued behind us in the global chain.
		func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			c.handoffLocked(n.lockFor(lockID), lockID)
		}()
	}

	// Block until a signal routes the lock back to us.
	c.takeGrant(c.recvReply(msgLockGrant, c.tag), lockID, false)
	c.clk.Advance(c.costs.Cond + c.costs.Lock)
	c.gcSyncHook(false) // the re-acquired lock is held: never stall here
}

// CondSignal unblocks one thread waiting on condID (no effect if none).
// The caller must hold the associated lock; the woken thread regains the
// lock only after the caller (and any earlier acquirers) release it.
func (c *Client) CondSignal(condID, lockID int) {
	c.condNotify(condID, lockID, false)
}

// CondBroadcast unblocks every thread waiting on condID; the woken threads
// chain onto the lock's request queue in their wait order.
func (c *Client) CondBroadcast(condID, lockID int) {
	c.condNotify(condID, lockID, true)
}

func (c *Client) condNotify(condID, lockID int, all bool) {
	n := c.n
	c.clk.Advance(c.costs.Cond)
	mgr := n.lockMgr(lockID)
	func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.stats.CondOps++
		if n.id == mgr {
			n.condWakeLocked(condID, lockID, all, c.clk.Now())
		}
	}()
	if n.id == mgr {
		c.gcSyncHook(false) // the associated lock is held: never stall here
		return
	}
	var w wbuf
	w.i32(condID)
	w.i32(lockID)
	typ := msgCondSignal
	if all {
		typ = msgCondBroadcast
	}
	n.ep.SendAt(mgr, typ, network.ClassRequest, w.b, c.clk.Now())
	c.gcSyncHook(false) // the associated lock is held: never stall here
}

// condWakeLocked implements the manager's queue transfer: each woken
// waiter is treated as a fresh lock request appended to the lock's chain.
func (n *Node) condWakeLocked(condID, lockID int, all bool, at sim.Time) {
	cq := n.condFor(condID)
	for len(cq.waiters) > 0 {
		wtr := cq.waiters[0]
		cq.waiters = cq.waiters[1:]
		n.enqueueLockRequestLocked(lockID, wtr.from, wtr.tag, wtr.vc, at)
		if !all {
			return
		}
	}
}

// enqueueLockRequestLocked runs the manager's acquire logic on behalf of a
// remote (or local) requester: handleAcqReq's for a wire request,
// condWakeLocked's for a woken waiter. When the chain ends at this node,
// the token is granted if free and queued behind the current holder
// otherwise (the holder may be any client of this node).
func (n *Node) enqueueLockRequestLocked(lockID, requester int, tag uint32, reqVC VectorClock, at sim.Time) {
	ls := n.lockFor(lockID)
	prev := ls.lastReq
	ls.lastReq = requester
	if prev == n.id {
		if ls.haveToken && !ls.held {
			n.grantFreeTokenLocked(ls, lockID, requester, tag, reqVC, at)
			return
		}
		ls.pending = append(ls.pending, pendingReq{from: requester, tag: tag, vc: reqVC})
		return
	}
	// Forward to the chain tail. If the waiter was itself the tail when it
	// went to sleep, the forward loops back to its own node, whose server
	// grants to the local application thread.
	var w wbuf
	w.i32(lockID)
	w.i32(requester)
	w.u32(tag)
	putVC(&w, reqVC)
	//nowlint:allow servernoblock -- bounded traffic: reqOutstanding caps each node at one in-flight acquire, so at most Procs-1 msgAcqFwd can exist at once, far under the request queue depth; the forward cannot block (PR 5 no-deadlock argument)
	n.ep.SendAt(prev, msgAcqFwd, network.ClassRequest, w.b, at)
}

// handleCondWait runs on the lock manager's protocol server. The ack is
// what lets the waiter release the lock knowing its registration can no
// longer lose a race with a future signal (see CondWait).
func (n *Node) handleCondWait(m *network.Message) {
	r := rbuf{b: m.Payload}
	condID := r.i32()
	_ = r.i32() // lockID: queue transfer happens at signal time
	tag := r.u32()
	reqVC := getVC(&r)
	at := m.Arrive + n.sys.plat.RequestService
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	cq := n.condFor(condID)
	cq.waiters = append(cq.waiters, semaWaiter{from: m.From, tag: tag, vc: reqVC})
	var ack wbuf
	ack.u32(tag)
	n.ep.SendAt(m.From, msgCondWaitAck, network.ClassReply, ack.b, at)
}

// handleCondNotify runs on the lock manager's protocol server for both
// signal and broadcast.
func (n *Node) handleCondNotify(m *network.Message, all bool) {
	r := rbuf{b: m.Payload}
	condID := r.i32()
	lockID := r.i32()
	at := m.Arrive + n.sys.plat.RequestService
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	n.condWakeLocked(condID, lockID, all, at)
}
