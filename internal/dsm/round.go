package dsm

import (
	"repro/internal/network"
	"repro/internal/sim"
)

// The manager round, Sections 3.2.3 and 4.2: a lock, semaphore or
// condition variable's statically assigned manager (lockMgr) takes a
// request carrying consistency information and answers with a grant or an
// ack. As in TreadMarks' one serial request handler (Keleher et al., USENIX
// Winter '94), one table lays out every request, one handler serves them,
// and the manager's own node runs the same policy inline (requestLocked).

// waiter is a requester queued at a manager or a lock's holder.
type waiter struct {
	from int
	tag  uint32
	vc   VectorClock
}

// syncQueue is a semaphore's or condition's manager state; banked is the
// FIFO of banked signal timestamps (len == classic "value").
type syncQueue struct {
	waiters []waiter
	banked  []sim.Time
}

// queueFor returns (creating on demand) the state for id in m.
func queueFor(m map[int]*syncQueue, id int) *syncQueue {
	q, ok := m[id]
	if !ok {
		q = &syncQueue{}
		m[id] = q
	}
	return q
}

// syncReq is one synchronization request.
type syncReq struct {
	waiter               // the requester, who is the sender except for a forward
	cond, id int         // a condition; the lock or semaphore
	recs     []*interval // a trailer body's records (encoding only)
	live     bool        // vc is the node's own clock: keep clones it
}

// keep returns the request's waiter for a queue, with a clock of its own.
func (q *syncReq) keep() waiter {
	if q.live {
		q.vc = q.vc.clone()
	}
	return q.waiter
}

// syncLayouts is the request table: each type's header fields, in wire
// order [i32 cond][i32 id][i32 requester][u32 tag]; its body, the
// requester's clock or a trailer; whether its client closes the interval
// first, and whether it then hands the held lock off once registered; the
// server's ack and the grant the client then awaits.
var syncLayouts = [...]struct {
	cond, id, from, tag, vc, trailer, release, handoff bool
	ack, grant                                         int
}{
	msgAcqReq:        {id: true, tag: true, vc: true, grant: msgLockGrant},
	msgAcqFwd:        {id: true, from: true, tag: true, vc: true},
	msgSemaSignal:    {id: true, tag: true, trailer: true, release: true, ack: msgSemaAck},
	msgSemaWait:      {id: true, tag: true, vc: true, grant: msgSemaGrant},
	msgCondWait:      {cond: true, id: true, tag: true, vc: true, release: true, handoff: true, ack: msgCondWaitAck, grant: msgLockGrant},
	msgCondSignal:    {cond: true, id: true},
	msgCondBroadcast: {cond: true, id: true},
	msgFlush:         {trailer: true, release: true, ack: msgFlushAck},
}

// putSyncReq encodes request typ as its layout says.
func putSyncReq(w *wbuf, scratch *[]byte, typ int, q *syncReq) {
	l := &syncLayouts[typ]
	for i, v := range [...]int{q.cond, q.id, q.from, int(q.tag)} {
		if [...]bool{l.cond, l.id, l.from, l.tag}[i] {
			w.i32(v) // a tag's bits as they are
		}
	}
	if l.vc {
		putVC(w, q.vc)
	} else if l.trailer {
		putTrailer(w, scratch, q.vc, q.recs)
	}
}

// getSyncReq decodes request typ from node from, up to a trailer body,
// which the handler takes against the node's store under n.mu.
func getSyncReq(r *rbuf, typ, from int) syncReq {
	l := &syncLayouts[typ]
	q := syncReq{waiter: waiter{from: from}}
	var tag int
	for i, p := range [...]*int{&q.cond, &q.id, &q.from, &tag} {
		if [...]bool{l.cond, l.id, l.from, l.tag}[i] {
			*p = r.i32()
		}
	}
	q.tag = uint32(tag)
	if l.vc {
		q.vc = getVC(r)
	}
	return q
}

// handleSyncReq serves every request in syncLayouts. A trailer is merged
// so later grants can carry it on (a signaler's intervals to the woken
// waiter); a flush's ack is empty and routes by type alone.
func (n *Node) handleSyncReq(m *network.Message) {
	l := &syncLayouts[m.Type]
	r := rbuf{b: m.Payload}
	q := getSyncReq(&r, m.Type, m.From)
	at := m.Arrive + n.sys.plat.RequestService
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	if l.trailer {
		n.takeTrailerLocked(&r, m.From)
	}
	if !r.done() {
		panic(wireErrf("dsm: node %d: %d bytes past a request of type %d", n.id, r.remaining(), m.Type))
	}
	n.manageLocked(m.Type, &q, at)
	if l.ack != 0 {
		var w wbuf
		if l.tag {
			w.u32(q.tag)
		}
		n.ep.SendAt(m.From, l.ack, network.ClassReply, w.b, at)
	}
}

func (n *Node) chargeInterruptLocked() {
	n.stats.Interrupts++
	n.stats.IntrTime += n.sys.plat.Interrupt
	n.clock.Advance(n.sys.plat.Interrupt)
}

// manageLocked runs request typ's manager policy at time at. done reports
// that an inline request (q.live) may go on at once, at t.
func (n *Node) manageLocked(typ int, q *syncReq, at sim.Time) (t sim.Time, done bool) {
	switch typ {
	case msgAcqReq:
		n.lockRequestLocked(q, at)
	case msgAcqFwd:
		n.lockHolderLocked(q, at)
	case msgSemaSignal:
		n.semaSignalLocked(q.id, at)
	case msgSemaWait:
		return n.semaWaitLocked(q, at)
	case msgCondWait:
		// The queue transfer to the lock happens at signal time.
		cq := queueFor(n.conds, q.cond)
		cq.waiters = append(cq.waiters, q.keep())
	case msgCondSignal, msgCondBroadcast:
		n.condWakeLocked(q.cond, q.id, typ == msgCondBroadcast, at)
	}
	return at, false
}

// requestLocked runs the policy inline, at the client's clock, when node
// to is this one, and sends the request otherwise. A trailer carries what
// to lacks by our estimate, sent under n.mu: the estimate update and the
// send are atomic with respect to other request-class deltas to to.
func (c *Client) requestLocked(typ, to int, q syncReq) (t sim.Time, done bool) {
	n := c.n
	q.from, q.tag, q.vc, q.live = n.id, c.tag, n.vc, to == n.id
	if q.live {
		return n.manageLocked(typ, &q, c.clk.Now())
	}
	if syncLayouts[typ].trailer {
		q.recs = n.deltaForLocked(n.knownVC[to])
		n.noteSentLocked(to)
	}
	var w wbuf
	putSyncReq(&w, &n.trailerBuf, typ, &q)
	n.ep.SendAt(to, typ, network.ClassRequest, w.b, c.clk.Now())
	return 0, false
}

// round is the client path: under n.mu it counts the op, closes the
// interval for a release and requests from the manager of q.id; it awaits
// an ack and, unless settled inline, the grant, then charges cost and
// books the time since entered on wait (nil for none). A handoff op (a
// condition wait) must hold the lock, which it frees once registered.
func (c *Client) round(typ int, q syncReq, count *int64, entered, cost sim.Time, wait *sim.Time) {
	n := c.n
	l := &syncLayouts[typ]
	mgr := n.lockMgr(q.id)
	t, done := func() (sim.Time, bool) {
		n.mu.Lock()
		defer n.mu.Unlock()
		if l.handoff {
			c.ownLocked(q.id)
		}
		*count++
		if l.release {
			n.closeIntervalLocked()
		}
		t, done := c.requestLocked(typ, mgr, q)
		if l.handoff && mgr == n.id {
			c.handoffLocked(n.lockFor(q.id), q.id) // registered: free the lock (see CondWait)
		}
		return t, done
	}()
	if l.ack != 0 && mgr != n.id {
		c.recvReply(l.ack, c.tag)
		if l.handoff {
			func() {
				n.mu.Lock()
				defer n.mu.Unlock()
				c.handoffLocked(n.lockFor(q.id), q.id)
			}()
		}
	}
	switch {
	case done:
		c.clk.AdvanceTo(t)
	case l.grant != 0:
		c.takeGrant(c.recvReply(l.grant, c.tag), q.id, !l.handoff)
	}
	c.settle(cost, wait, entered)
}

// settle charges cost and books the op on wait: the client clock READ at
// the call (entered) and at the return, never advanced for the measurement.
// The garbage-collection hook that follows is not included. A one-node
// system books nothing: with no protocol to wait on it is hardware shared
// memory, which keeps no ledger.
func (c *Client) settle(cost sim.Time, wait *sim.Time, entered sim.Time) {
	c.clk.Advance(cost)
	if wait != nil && len(c.n.sys.nodes) > 1 {
		c.n.mu.Lock()
		*wait += c.clk.Now() - entered
		c.n.mu.Unlock()
	}
}

// sendGrantLocked grants w lock (ls non-nil) or semaphore id at time at:
// [i32 id][u32 tag][trailer of what w.vc lacks], and to another node a
// lock's data, which leave with the token. Grants are exact deltas
// (relative to the requester's own reported clock) so they never update
// the knownVC estimates: estimates may only grow with request-class sends,
// whose per-pair FIFO ordering makes the estimate sound (a reply-class
// grant could overtake an in-flight request-class delta and leave the
// receiver with an interval gap).
func (n *Node) sendGrantLocked(ls *lockState, id int, w waiter, at sim.Time) {
	var b wbuf
	b.i32(id)
	b.u32(w.tag)
	delta := n.deltaForLocked(w.vc)
	putTrailer(&b, &n.trailerBuf, n.vc, delta)
	typ := msgSemaGrant
	if ls != nil {
		typ = msgLockGrant
		if w.from != n.id {
			at += n.putGrantDataLocked(&b, ls, delta)
			clear(ls.inData)
			ls.data = ls.data[:0]
		}
	}
	if w.from != n.id {
		n.ep.SendAt(w.from, typ, network.ClassReply, b.b, at)
		return
	}
	// Managers never talk to themselves over the wire.
	n.router.route(&network.Message{From: n.id, To: n.id, Type: typ, Payload: b.b, Send: at, Arrive: at})
}
