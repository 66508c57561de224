package dsm

import (
	"fmt"
	"sync"

	"repro/internal/network"
	"repro/internal/sim"
)

// The island-delegate hooks: everything a NOW-of-SMPs backend needs to
// let SEVERAL application threads share one dsm.Node.
//
// A classic node is one workstation with exactly one application thread,
// and every protocol cost lands on the node's single clock. An SMP island
// keeps one Node as its delegate — one seat in the LRC protocol, one
// private copy of the paged address space — but runs a whole team of
// threads against it. Client is one such thread's handle: it carries the
// thread's own virtual clock, a reply tag that routes grants and
// acknowledgments back to the exact thread that asked for them, and the
// island-local cost constants for synchronization satisfied without
// leaving the node.
//
// The classic node is the one-client case: every Node owns a default
// client (tag 0, the node's own clock, zero local costs) and its exported
// application API delegates to it. NewClient adds more on any node. Every
// node delivers replies the same way (replyRouter below), whatever its
// client count.

// ClientCosts are the island-local (bus-scale) synchronization charges a
// multi-client node applies to operations that complete without protocol
// messages: a lock handoff between two threads of the island, a semaphore
// op banked at a local manager, a condition wake. The zero value (used by
// the classic client) charges nothing, preserving single-thread behavior.
type ClientCosts struct {
	Lock sim.Time
	Sema sim.Time
	Cond sim.Time
}

// Client is one application thread's handle on a Node. All application-
// side protocol operations (synchronization, typed shared-memory access,
// fork/join) are Client methods; Node re-exports them through its default
// client for the classic one-thread-per-node configuration.
type Client struct {
	n     *Node
	clk   *sim.Clock
	tag   uint32
	costs ClientCosts
	held  []int                 // the locks this thread holds, in acquisition order
	reply chan *network.Message // replies other threads route here (replyRouter)
	wake  chan localWake        // this thread's local lock handoffs, while parked in Acquire

	// Page groups (group.go), under n.mu: the pages this thread's fault
	// rounds fetched in node episode epoch, the groups earlier records
	// closed into, and each grouped page's latest group, sorted by page.
	epoch   int64
	record  []PageID
	groups  [][]PageID
	grouped []pageGroup
}

// NewClient registers an additional application thread on the node,
// with its own reply tag. clk is the thread's own virtual clock (protocol
// costs incurred on the thread's behalf are charged there). Its accesses
// and flushes take the node's engine lock (Node.eng).
func (n *Node) NewClient(clk *sim.Clock, costs ClientCosts) *Client {
	n.mu.Lock()
	n.nextTag++
	tag := n.nextTag
	n.mu.Unlock()
	return &Client{n: n, clk: clk, tag: tag, costs: costs, reply: make(chan *network.Message, 1), wake: make(chan localWake, 1)}
}

// oneClientLocked reports whether the default client is the node's only
// one — the classic workstation, on which a lock state an island-mate
// would explain is a protocol bug. Requires n.mu.
func (n *Node) oneClientLocked() bool { return n.nextTag == 0 }

// Node returns the island delegate this client runs against.
func (c *Client) Node() *Node { return c.n }

// Now returns the client's current virtual time.
func (c *Client) Now() sim.Time { return c.clk.Now() }

// Compute charges the virtual cost of flops floating-point operations to
// the client's clock.
func (c *Client) Compute(flops float64) {
	c.clk.Advance(c.n.sys.plat.ComputeCost(flops))
}

// Charge advances the client's clock by an explicit duration.
func (c *Client) Charge(d sim.Time) { c.clk.Advance(d) }

// recvReply blocks the client for the next reply addressed to it —
// from the wire or from the node's own protocol server (self-grants) —
// advances the client's clock to its arrival, and asserts its type. The
// node's reply router matches (type, key), where key is the client's tag
// for tagged reply types and 0 for replies that are unique per node by
// construction (fetch replies under fetchMu, barrier departures, flush
// acks).
func (c *Client) recvReply(wantType int, key uint32) *network.Message {
	n := c.n
	m := n.router.await(c, routeKey{typ: wantType, key: key})
	if m == nil {
		panic(abortError{cause: "switch shut down"})
	}
	c.clk.AdvanceTo(m.Arrive)
	if m.Type == msgBatch {
		m = n.unwrapReplyBatch(m)
	}
	if m.Type != wantType {
		panic(fmt.Sprintf("dsm: node %d expected reply type %d, got %d from %d", n.id, wantType, m.Type, m.From))
	}
	return m
}

// unwrapReplyBatch splits a reply-class frame (a batched barrier
// departure wave; see forwardDeparturesLocked): the FIRST sub is the
// primary reply handed back to the waiter, and every sub behind it is a
// piggybacked notice — a msgGCFloor epoch announcement riding the
// departure — handled inline right here. Running the handler on the
// application thread is safe because the thread is parked in recvReply
// holding neither n.mu nor fetchMu, exactly the locks the handler takes
// (and the server-side epoch attempt only ever TryLocks fetchMu).
func (n *Node) unwrapReplyBatch(m *network.Message) *network.Message {
	var primary *network.Message
	r := rbuf{b: m.Payload}
	walkBatch(&r, n.id, func(typ int, payload []byte) {
		sub := &network.Message{
			From: m.From, To: m.To, Type: typ, Class: m.Class,
			Payload: payload, Send: m.Send, Arrive: m.Arrive,
		}
		if primary == nil {
			primary = sub
			return
		}
		switch typ {
		case msgGCFloor:
			n.handleGCFloor(sub)
		default:
			panic(fmt.Sprintf("dsm: node %d: unexpected piggyback type %d in reply frame from %d", n.id, typ, m.From))
		}
	})
	if primary == nil {
		panic(fmt.Sprintf("dsm: node %d: empty reply frame from %d", n.id, m.From))
	}
	return primary
}

// ---------------------------------------------------------------------
// Reply routing. A node's replies reach its threads through one router.
// Tagged reply types (lock grants, semaphore grants and acks,
// condition-wait acks) carry the requesting client's tag in a fixed
// payload position; untagged types — msgFetchRep, the one reply that
// carries pages and diffs, barrier departures, flush acks — route by
// message type alone, which is unambiguous because the operations that
// await them are serialized per node (see the uniqueness argument in
// recvReply). There is no routing goroutine: a thread waiting in
// recvReply reads the node's wire reply channel itself and hands a reply
// meant for another client to that client's waiter, or to the backlog
// if the client is not waiting yet. The protocol server routes a reply
// to its own node (sendGrantLocked) the same way.
// ---------------------------------------------------------------------

type routeKey struct {
	typ int
	key uint32
}

type replyRouter struct {
	mu      sync.Mutex
	waiting map[routeKey]chan *network.Message // at most one waiter per key
	backlog map[routeKey][]*network.Message
}

func newReplyRouter() replyRouter {
	return replyRouter{
		waiting: make(map[routeKey]chan *network.Message),
		backlog: make(map[routeKey][]*network.Message),
	}
}

// replyRouteKey extracts the routing key of a reply message: the client
// tag for tagged types, 0 otherwise.
func replyRouteKey(typ int, payload []byte) routeKey {
	k := routeKey{typ: typ}
	r := rbuf{b: payload}
	switch typ {
	case msgBatch:
		// A reply-class frame routes by its FIRST sub — the primary reply
		// (the piggybacked notices behind it carry no tag). The whole
		// frame is delivered to that waiter; recvReply unwraps it.
		r.uv() // sub count
		sub := int(r.u8())
		return replyRouteKey(sub, r.need(r.uvi()))
	case msgLockGrant, msgSemaGrant:
		// Payload leads with [i32 id][u32 tag].
		r.i32()
		k.key = r.u32()
	case msgSemaAck, msgCondWaitAck:
		// Payload is [u32 tag].
		k.key = r.u32()
	}
	return k
}

// route delivers one message: to its waiter if one is registered,
// otherwise to the backlog for the next matching await. A waiter routing
// a message it read off the wire passes its own key as mine: route then
// reports true when the message is the caller's, delivering nothing. The
// protocol server passes the zero key, which no reply has.
func (r *replyRouter) route(m *network.Message, mine routeKey) bool {
	k := replyRouteKey(m.Type, m.Payload)
	r.mu.Lock()
	ch, ok := r.waiting[k]
	if !ok {
		r.backlog[k] = append(r.backlog[k], m)
		r.mu.Unlock()
		return false
	}
	delete(r.waiting, k)
	r.mu.Unlock()
	if k == mine {
		return true
	}
	// Never blocks: the waiter registered ch empty, and registers it again
	// only after receiving this message.
	ch <- m
	return false
}

// await blocks client c until a message with key k is routed to it or
// the system shuts down (returning nil). While it waits it drains the
// node's wire reply channel, routing each message it reads.
func (r *replyRouter) await(c *Client, k routeKey) *network.Message {
	n := c.n
	r.mu.Lock()
	if q := r.backlog[k]; len(q) > 0 {
		m := q[0]
		r.backlog[k] = append(q[:0], q[1:]...)
		r.mu.Unlock()
		return m
	}
	if _, busy := r.waiting[k]; busy {
		r.mu.Unlock()
		panic(fmt.Sprintf("dsm: node %d: two threads await reply type %d key %d", n.id, k.typ, k.key))
	}
	r.waiting[k] = c.reply
	r.mu.Unlock()
	wire := n.ep.Chan(network.ClassReply)
	for {
		select {
		case m := <-c.reply:
			return m
		case m := <-wire:
			if r.route(m, k) {
				return m
			}
		case <-n.sys.done:
			return nil
		}
	}
}
