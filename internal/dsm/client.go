package dsm

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/network"
	"repro/internal/sim"
)

// The application thread. Client is the per-thread TreadMarks API the
// compiler emits calls against: typed shared-memory access,
// synchronization, fork/join and the thread's virtual clock.
//
// A classic node is one workstation with exactly one application thread,
// and every protocol cost lands on the node's single clock: that thread is
// the default client every Node embeds (tag 0, the node's own clock, zero
// local costs). An SMP island keeps one Node as its delegate — one seat in
// the LRC protocol, one private copy of the paged address space — but runs
// a whole team of threads against it (Hu, Lu, Cox and Zwaenepoel, IPPS
// '99): NewClient adds one Client per thread, carrying the thread's own
// virtual clock, a reply tag that routes grants and acknowledgments back
// to the exact thread that asked for them, and the island-local cost
// constants for synchronization satisfied without leaving the node. The
// clients added before Run are the node's team: every region runs on each
// of them (fork.go) and their barriers gather on the island before one of
// them crosses the network (barrier.go). Every node delivers replies and
// its server's handoffs the same way (replyRouter below), whatever its
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

// Client is one application thread's handle on a Node. Every
// application-side protocol operation (synchronization, typed
// shared-memory access, fork/join) is declared once, as a Client method;
// a Node has them through its embedded default client.
type Client struct {
	n      *Node
	clk    *sim.Clock
	tag    uint32
	id     int  // thread number in the system's team (System.Run numbers it)
	inTeam bool // one of the node's team: runs every region, gathers at the island barrier
	costs  ClientCosts
	held   []int                 // the locks this thread holds, in acquisition order
	reply  chan *network.Message // messages other threads route here (replyRouter)
	wake   chan localWake        // this thread's local lock handoffs, while parked in Acquire
	// note is the island barrier's departure to this thread, reused every
	// episode: the departing mate writes it only after this thread arrived,
	// and so after it read the previous one.
	note network.Message

	// Page groups (group.go), under n.mu: the pages this thread's fault
	// rounds fetched in node episode epoch, the groups earlier records
	// closed into, and each grouped page's latest group, sorted by page.
	epoch   int64
	record  []PageID
	groups  [][]PageID
	grouped []pageGroup
}

// thread names the default client a Node embeds without exporting a
// Client field.
type thread = Client

// NewClient registers an additional application thread on the node,
// with its own reply tag. clk is the thread's own virtual clock (protocol
// costs incurred on the thread's behalf are charged there). Its accesses
// and flushes take the node's engine lock (Node.eng). A client added
// before Run joins the node's team, which runs every region; one added
// while the system runs is driven by the thread that added it.
func (n *Node) NewClient(clk *sim.Clock, costs ClientCosts) *Client {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextTag++
	c := newClient(n, clk, n.nextTag, costs)
	if !n.sys.running {
		c.inTeam = true
		n.team = append(n.team, &c)
	}
	return &c
}

func newClient(n *Node, clk *sim.Clock, tag uint32, costs ClientCosts) Client {
	return Client{n: n, clk: clk, tag: tag, costs: costs, reply: make(chan *network.Message, 1), wake: make(chan localWake, 1)}
}

// oneClientLocked reports whether the default client is the node's only
// one — the classic workstation, on which a lock state an island-mate
// would explain is a protocol bug. Requires n.mu.
func (n *Node) oneClientLocked() bool { return n.nextTag == 0 }

// ID returns the thread's number in the system's team: the node id on a
// classic node, and on islands the place of the client among the teams of
// every node, in node order.
func (c *Client) ID() int { return c.id }

// NumProcs returns the team size: every node's team, or its default
// thread where it has none.
func (c *Client) NumProcs() int { return c.n.sys.threads }

// Now returns the client's current virtual time.
func (c *Client) Now() sim.Time { return c.clk.Now() }

// Compute charges the virtual cost of flops floating-point operations to
// the client's clock.
func (c *Client) Compute(flops float64) {
	c.clk.Advance(c.n.sys.plat.ComputeCost(flops))
}

// Charge advances the client's clock by an explicit duration.
func (c *Client) Charge(d sim.Time) { c.clk.Advance(d) }

// Poll yields the processor inside a busy-wait loop (the flush-based
// constructs of the paper's Figures 1 and 2). Polling charges no virtual
// time by itself: the number of real spin iterations is a scheduling
// artifact of direct execution, and the spinning thread's virtual clock
// advances when the awaited write notice arrives and the fault pulls the
// new value (which is lower-bounded by the flusher's send time).
func (c *Client) Poll() { runtime.Gosched() }

// recvReply blocks the client for the next reply addressed to it —
// from the wire or from the node's own protocol server (self-grants) —
// advances the client's clock to its arrival, and asserts its type. The
// node's reply router matches (type, key), where key is the client's tag
// for tagged reply types and 0 for replies that are unique per node by
// construction (fetch replies under fetchMu, barrier departures, flush
// acks).
func (c *Client) recvReply(wantType int, key uint32) *network.Message {
	n := c.n
	m := c.await(routeKey{typ: wantType, key: key})
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
// Routing. Every wait of a node's threads for another thread — a reply
// off the wire, a fork, join or barrier arrival the protocol server
// received, an island-mate's fork, join or barrier departure — is one
// await on the node's router, for one (type, key). Tagged reply types
// (lock grants, semaphore grants and acks, condition-wait acks) carry the
// requesting client's tag in a fixed payload position; every other type
// the wire carries routes by type alone with key 0, which is unambiguous
// because the operations that await them are serialized per node (see the
// uniqueness argument in recvReply, and the fork loop, the join and the
// barrier gather, each the business of one thread). Island handoffs
// address a mate by its tag. There is no routing goroutine: a thread
// waiting in await reads the node's wire reply channel itself and hands a
// message meant for another waiter to it, or to the backlog if that
// waiter is not waiting yet. The protocol server hands its own node what
// it received (sendGrantLocked, dispatch) the same way, and never blocks
// doing so.
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

// replyRouteKey extracts the routing key of a message: the client tag for
// tagged types, 0 otherwise.
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
	case msgExit:
		// A slave awaits its next fork or its exit, in wire order.
		k.typ = msgFork
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

// route delivers one message under its own key.
func (r *replyRouter) route(m *network.Message) {
	r.deliver(replyRouteKey(m.Type, m.Payload), m)
}

// deliver hands m to the waiter of key k if one is registered — the
// caller itself, when it routes what it read while awaiting k — or else
// to the backlog for the next await of k. It never blocks.
func (r *replyRouter) deliver(k routeKey, m *network.Message) {
	r.mu.Lock()
	ch, ok := r.waiting[k]
	if !ok {
		r.backlog[k] = append(r.backlog[k], m)
		r.mu.Unlock()
		return
	}
	delete(r.waiting, k)
	r.mu.Unlock()
	// The waiter registered ch empty, and registers it again only after
	// receiving this message.
	ch <- m
}

// await blocks client c until a message with key k is delivered to it or
// the system shuts down (returning nil). While it waits it drains the
// node's wire reply channel, routing each message it reads. It is the one
// place an application thread waits for another thread, apart from an
// island-mate's lock handoff (Acquire) and the collector's waits.
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
		panic(fmt.Sprintf("dsm: node %d: two threads await message type %d key %d", n.id, k.typ, k.key))
	}
	r.waiting[k] = c.reply
	r.mu.Unlock()
	wire := n.ep.Chan(network.ClassReply)
	for {
		select {
		case m := <-c.reply:
			return m
		case m := <-wire:
			r.route(m)
		case <-n.sys.done:
			return nil
		}
	}
}

// await is the router's await for client c, unwinding the thread when
// the system shuts down instead.
func (c *Client) await(k routeKey) *network.Message {
	m := c.n.router.await(c, k)
	if m == nil {
		panic(abortError{cause: "switch shut down"})
	}
	return m
}
