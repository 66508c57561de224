package dsm

import "repro/internal/sim"

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
// its signal is enqueued at the manager strictly after our wait. Once
// registered, the freed lock goes to an island-mate parked locally first,
// then to anyone queued behind us in the global chain; a registration at
// our own node is atomic with that release under n.mu.
func (c *Client) CondWait(condID, lockID int) {
	// Release semantics: the interval closes, and the wait carries our
	// clock so the eventual wake-grant brings us what we miss.
	c.round(msgCondWait, syncReq{cond: condID, id: lockID}, &c.n.stats.CondOps, 0, c.costs.Cond+c.costs.Lock, nil)
	c.gcSyncHook(false) // the re-acquired lock is held: never stall here
}

// CondSignal unblocks one thread waiting on condID (no effect if none).
// The caller must hold the associated lock; the woken thread regains the
// lock only after the caller (and any earlier acquirers) release it.
func (c *Client) CondSignal(condID, lockID int) {
	c.condNotify(msgCondSignal, condID, lockID)
}

// CondBroadcast unblocks every thread waiting on condID; the woken threads
// chain onto the lock's request queue in their wait order.
func (c *Client) CondBroadcast(condID, lockID int) {
	c.condNotify(msgCondBroadcast, condID, lockID)
}

func (c *Client) condNotify(typ, condID, lockID int) {
	c.clk.Advance(c.costs.Cond)
	c.round(typ, syncReq{cond: condID, id: lockID}, &c.n.stats.CondOps, 0, 0, nil)
	c.gcSyncHook(false) // the associated lock is held: never stall here
}

// condWakeLocked implements the manager's queue transfer: each woken
// waiter is treated as a fresh lock request appended to the lock's chain.
func (n *Node) condWakeLocked(condID, lockID int, all bool, at sim.Time) {
	cq := queueFor(n.conds, condID)
	for len(cq.waiters) > 0 {
		n.lockRequestLocked(&syncReq{waiter: cq.waiters[0], id: lockID}, at)
		cq.waiters = cq.waiters[1:]
		if !all {
			return
		}
	}
}
