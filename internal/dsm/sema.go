package dsm

import "repro/internal/sim"

// Semaphores, Sections 3.2.3 and 4.2: "A sema_signal corresponds to a
// release in the release consistency model and a sema_wait corresponds to
// an acquire. Each semaphore has a statically assigned manager. A
// signaling thread sends a message to the manager including the
// consistency information. A thread performing a sema_wait also sends a
// message to the manager, who replies with the necessary consistency
// information once the waiting thread is allowed to continue. Thus a
// sema_signal or a sema_wait costs two messages including an
// acknowledgment." Waiters block instead of busy-waiting — the paper's
// argument for adding semaphores to the standard.
//
// A wait at its own node's manager costs no message: a banked signal is
// consumed in place, and otherwise the signal's arrival at the node's
// protocol server grants the waiting thread through the node's reply
// router. An application that places each semaphore on its waiter's node
// (Sweep3D's pipeline) thus pays only the signal's request and
// acknowledgment.
//
// Banked signals carry their virtual timestamps: a P that consumes a
// banked V resumes no earlier than that V was performed, which is what
// couples producer and consumer time when the two run as threads of one
// node (an SMP island) and no message arrival exists to carry the order.

// SemaSignal performs V(id): release semantics. Consistency information
// flows to the manager, which passes it on to the woken waiter (if any);
// the signal costs two messages including the acknowledgment.
func (c *Client) SemaSignal(id int) {
	entered := c.clk.Now()
	c.clk.Advance(c.costs.Sema)
	c.round(msgSemaSignal, syncReq{id: id}, &c.n.stats.SemaOps, entered, 0, &c.n.stats.SemaWait)
	c.gcSyncHook(true)
}

// SemaWait performs P(id): acquire semantics, blocking (not spinning)
// until a matching signal arrives.
func (c *Client) SemaWait(id int) {
	c.round(msgSemaWait, syncReq{id: id}, &c.n.stats.SemaOps, c.clk.Now(), c.costs.Sema, &c.n.stats.SemaWait)
	c.gcSyncHook(true)
}

// semaSignalLocked is the manager's V: wake the first waiter with a grant
// carrying its missing intervals, or bank the signal's timestamp.
func (n *Node) semaSignalLocked(id int, at sim.Time) {
	ss := queueFor(n.semas, id)
	if len(ss.waiters) == 0 {
		ss.banked = append(ss.banked, at)
		return
	}
	n.sendGrantLocked(nil, id, ss.waiters[0], at)
	ss.waiters = ss.waiters[1:]
}

// semaWaitLocked is the manager's P: a banked signal satisfies it, no
// earlier than that signal's timestamp — a P cannot complete before its
// matching V — and otherwise it waits for the next signal. A P made on the
// manager's own node needs no grant: the manager already incorporated the
// signaler's intervals when the banked signal arrived, so only its
// timestamp matters.
func (n *Node) semaWaitLocked(q *syncReq, at sim.Time) (sim.Time, bool) {
	ss := queueFor(n.semas, q.id)
	if len(ss.banked) == 0 {
		ss.waiters = append(ss.waiters, q.keep())
		return at, false
	}
	at = max(at, ss.banked[0])
	ss.banked = ss.banked[1:]
	if !q.live {
		n.sendGrantLocked(nil, q.id, q.waiter, at)
	}
	return at, q.live
}
