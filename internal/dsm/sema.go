package dsm

import (
	"repro/internal/network"
	"repro/internal/sim"
)

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

// semaState lives at a semaphore's manager node.
type semaState struct {
	banked  []sim.Time // FIFO of banked signal timestamps (len == classic "value")
	waiters []semaWaiter
}

type semaWaiter struct {
	from int
	tag  uint32
	vc   VectorClock
}

func (n *Node) semaFor(id int) *semaState {
	ss, ok := n.semas[id]
	if !ok {
		ss = &semaState{}
		n.semas[id] = ss
	}
	return ss
}

// SemaSignal performs V(id): release semantics. Consistency information
// flows to the manager, which passes it on to the woken waiter (if any).
func (c *Client) SemaSignal(id int) {
	n := c.n
	entered := c.clk.Now()
	c.clk.Advance(c.costs.Sema)
	mgr := n.lockMgr(id)
	func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.stats.SemaOps++
		n.closeIntervalLocked()
		if n.id == mgr {
			n.semaSignalAtMgrLocked(id, c.clk.Now())
			n.stats.SemaWait += c.clk.Now() - entered
			return
		}
		var w wbuf
		w.i32(id)
		w.u32(c.tag)
		putTrailer(&w, &n.trailerBuf, n.vc, n.deltaForLocked(n.knownVC[mgr]))
		n.noteSentLocked(mgr)
		// Send while holding mu: the estimate update and the send must be
		// atomic with respect to other request-class deltas to mgr.
		n.ep.SendAt(mgr, msgSemaSignal, network.ClassRequest, w.b, c.clk.Now())
	}()
	if n.id != mgr {
		c.recvReply(msgSemaAck, c.tag) // two messages including the acknowledgment
		c.semaDone(entered)
	}
	c.gcSyncHook(true)
}

// semaSignalAtMgrLocked applies a signal at the manager: wake the first
// waiter with a grant carrying its missing intervals, or bank the signal's
// timestamp.
func (n *Node) semaSignalAtMgrLocked(id int, at sim.Time) {
	ss := n.semaFor(id)
	if len(ss.waiters) == 0 {
		ss.banked = append(ss.banked, at)
		return
	}
	wtr := ss.waiters[0]
	ss.waiters = ss.waiters[1:]
	var w wbuf
	w.i32(id)
	w.u32(wtr.tag)
	putTrailer(&w, &n.trailerBuf, n.vc, n.deltaForLocked(wtr.vc)) // exact delta: no estimate update
	n.sendOrSelfLocked(wtr.from, msgSemaGrant, w.b, at)
}

// SemaWait performs P(id): acquire semantics, blocking (not spinning)
// until a matching signal arrives.
func (c *Client) SemaWait(id int) {
	n := c.n
	entered := c.clk.Now()
	mgr := n.lockMgr(id)
	n.mu.Lock()
	n.stats.SemaOps++
	if n.id == mgr {
		ss := n.semaFor(id)
		if len(ss.banked) > 0 {
			// The manager already incorporated the signaler's intervals
			// when the banked signal arrived; only its timestamp matters.
			at := ss.banked[0]
			ss.banked = ss.banked[1:]
			n.mu.Unlock()
			c.clk.AdvanceTo(at)
			c.clk.Advance(c.costs.Sema)
			c.semaDone(entered)
			c.gcSyncHook(true)
			return
		}
		ss.waiters = append(ss.waiters, semaWaiter{from: n.id, tag: c.tag, vc: n.vc.clone()})
		n.mu.Unlock()
	} else {
		var w wbuf
		w.i32(id)
		w.u32(c.tag)
		putVC(&w, n.vc)
		n.mu.Unlock()
		n.ep.SendAt(mgr, msgSemaWait, network.ClassRequest, w.b, c.clk.Now())
	}

	m := c.recvReply(msgSemaGrant, c.tag)
	r := rbuf{b: m.Payload}
	if got := r.i32(); got != id {
		panic("dsm: semaphore grant for wrong semaphore")
	}
	r.u32() // tag: already matched by routing
	n.incorporateWire(&r, m.From)
	c.clk.Advance(c.costs.Sema)
	c.semaDone(entered)
	c.gcSyncHook(true)
}

// semaDone books a semaphore operation on the SemaWait ledger — the client
// clock READ at the call and at the return, never advanced for the
// measurement. The garbage-collection hook that follows is not included.
func (c *Client) semaDone(entered sim.Time) {
	c.n.mu.Lock()
	c.n.stats.SemaWait += c.clk.Now() - entered
	c.n.mu.Unlock()
}

// handleSemaSignal runs on the manager's protocol server.
func (n *Node) handleSemaSignal(m *network.Message) {
	r := rbuf{b: m.Payload}
	id := r.i32()
	tag := r.u32()
	at := m.Arrive + n.sys.plat.RequestService

	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	// The manager merges the signaler's knowledge so later grants can
	// carry it to waiters.
	n.takeTrailerLocked(&r, m.From)
	n.semaSignalAtMgrLocked(id, at)
	var ack wbuf
	ack.u32(tag)
	n.ep.SendAt(m.From, msgSemaAck, network.ClassReply, ack.b, at)
}

// handleSemaWait runs on the manager's protocol server.
func (n *Node) handleSemaWait(m *network.Message) {
	r := rbuf{b: m.Payload}
	id := r.i32()
	tag := r.u32()
	reqVC := getVC(&r)
	at := m.Arrive + n.sys.plat.RequestService

	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	ss := n.semaFor(id)
	if len(ss.banked) > 0 {
		// A P cannot complete before its matching V: the grant leaves no
		// earlier than the banked signal's timestamp.
		bankedAt := ss.banked[0]
		ss.banked = ss.banked[1:]
		if bankedAt > at {
			at = bankedAt
		}
		var w wbuf
		w.i32(id)
		w.u32(tag)
		putTrailer(&w, &n.trailerBuf, n.vc, n.deltaForLocked(reqVC)) // exact delta
		n.ep.SendAt(m.From, msgSemaGrant, network.ClassReply, w.b, at)
		return
	}
	ss.waiters = append(ss.waiters, semaWaiter{from: m.From, tag: tag, vc: reqVC})
}
