// Package network simulates the paper's interconnect: a switched,
// full-duplex 100 Mbps Ethernet connecting eight workstations.
//
// A Switch moves Messages between Endpoints. Delivery is reliable and
// per-sender-pair ordered (both UDP-with-retransmit in TreadMarks and TCP
// in MPICH behave this way at the level we model). Each message is stamped
// with a virtual send time and a virtual arrival time computed from the
// switch's WireProfile; receivers advance their clocks to the arrival time,
// which is how virtual time propagates between nodes.
//
// The Switch also keeps the statistics behind the paper's Table 2: total
// message count and total bytes (payload plus per-message header overhead)
// for each run.
package network

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Class separates the two delivery queues of an endpoint. Protocol
// requests are handled by a node's server goroutine (the analogue of the
// SIGIO handler in TreadMarks), while replies and grants are awaited by the
// application thread. Splitting them keeps a blocked application thread
// from ever stalling protocol service.
type Class int

const (
	// ClassRequest messages are consumed by the node's protocol server.
	ClassRequest Class = iota
	// ClassReply messages are consumed by the blocked application thread.
	ClassReply
)

// Message is one simulated datagram.
type Message struct {
	From, To int
	Type     int    // protocol-defined tag
	Class    Class  // which queue it is delivered to
	Payload  []byte // opaque encoded body

	Send   sim.Time // virtual time at which the sender issued it
	Arrive sim.Time // virtual time at which it reaches the receiver
}

// MaxType bounds the protocol message-type space the per-type counters
// track. Types at or above it are still delivered and counted in the
// totals; only their per-type attribution is folded into slot 0.
const MaxType = 32

// Stats accumulates traffic totals for one run. All fields are updated
// atomically and may be read while the run is in flight.
//
// Messages and Bytes count LOGICAL protocol messages: a coalesced frame
// (SendFrameAt) contributes one Message per sub-message it carries and
// its full wire size to Bytes, exactly as if the subs had traveled
// separately minus the saved per-datagram headers. Frames counts the
// datagrams actually put on the wire (plain sends count one each), so
// Messages − Frames is the number of datagrams batching eliminated.
type Stats struct {
	Messages atomic.Int64
	Bytes    atomic.Int64
	Frames   atomic.Int64

	// Per-message-type counters, indexed by the protocol's type tag: the
	// raw material for cost attribution (page service vs synchronization
	// vs GC consensus) in the scaling tables. The network layer does not
	// interpret the tags; the protocol maps them to categories.
	typeMsgs  [MaxType]atomic.Int64
	typeBytes [MaxType]atomic.Int64
}

// Snapshot returns the current totals.
func (s *Stats) Snapshot() (messages, bytes int64) {
	return s.Messages.Load(), s.Bytes.Load()
}

// ByType returns the totals recorded against one protocol message type.
// Sub-messages of a coalesced frame are attributed to their own types,
// never to the envelope type.
func (s *Stats) ByType(typ int) (messages, bytes int64) {
	if typ < 0 || typ >= MaxType {
		typ = 0
	}
	return s.typeMsgs[typ].Load(), s.typeBytes[typ].Load()
}

// FrameCount returns the number of datagrams sent (plain sends count one
// each; a coalesced frame counts one regardless of how many sub-messages
// it carries).
func (s *Stats) FrameCount() int64 { return s.Frames.Load() }

// ErrDown is the panic value of every send on a switch that has been shut
// down: the unwind signal of an abort, and what a protocol server still
// draining its queue after a clean run meets when a straggler request
// wants a reply. It never causes a failure, only follows a shutdown.
var ErrDown = errors.New("network: switch is down")

// Switch connects n endpoints with a shared wire profile.
type Switch struct {
	profile  sim.WireProfile
	stats    Stats
	boxes    [][2]mailbox  // [node][class]
	down     chan struct{} // closed by Shutdown
	downOnce sync.Once
}

// mailbox is one (node, class) inbox: an unbounded FIFO. A send appends
// and never blocks or drops — the model's delivery is reliable, as
// TreadMarks' UDP-with-retransmit is — so no protocol argument rests on a
// queue bound. ready holds one token whenever the FIFO may be non-empty
// for a receiver that has not yet looked; a receiver drains with pop and
// waits on ready only when pop finds nothing.
type mailbox struct {
	mu    sync.Mutex
	q     []*Message // q[head:] are queued, oldest first
	head  int
	ready chan struct{}
}

func (b *mailbox) push(m *Message) {
	b.mu.Lock()
	if len(b.q) == cap(b.q) && 2*b.head >= len(b.q) && b.head > 0 {
		// Reclaim a received prefix of at least half the array before
		// append would grow it: each message is copied O(1) times.
		k := copy(b.q, b.q[b.head:])
		clear(b.q[k:])
		b.q, b.head = b.q[:k], 0
	}
	b.q = append(b.q, m)
	b.mu.Unlock()
	b.signal()
}

// pop returns the oldest queued message, or nil. A pop that leaves
// messages behind passes the ready token on, so a second receiver of the
// same inbox (two threads of one node awaiting replies) never sleeps
// beside a non-empty queue.
func (b *mailbox) pop() *Message {
	b.mu.Lock()
	if b.head == len(b.q) {
		b.mu.Unlock()
		return nil
	}
	m := b.q[b.head]
	b.q[b.head] = nil
	b.head++
	more := b.head < len(b.q)
	if !more {
		b.q, b.head = b.q[:0], 0
	}
	b.mu.Unlock()
	if more {
		b.signal()
	}
	return m
}

func (b *mailbox) signal() {
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// NewSwitch creates a switch for n endpoints using the given wire profile.
func NewSwitch(n int, profile sim.WireProfile) *Switch {
	sw := &Switch{profile: profile, down: make(chan struct{}), boxes: make([][2]mailbox, n)}
	for i := range sw.boxes {
		for c := range sw.boxes[i] {
			sw.boxes[i][c].ready = make(chan struct{}, 1)
		}
	}
	return sw
}

// Stats returns the switch's traffic counters.
func (s *Switch) Stats() *Stats { return &s.stats }

// ResetStats zeroes the traffic counters, so that a test or an ablation
// can count one phase of a run (Table 2 counts whole runs and never
// resets).
func (s *Switch) ResetStats() {
	s.stats.Messages.Store(0)
	s.stats.Bytes.Store(0)
	s.stats.Frames.Store(0)
	for i := 0; i < MaxType; i++ {
		s.stats.typeMsgs[i].Store(0)
		s.stats.typeBytes[i].Store(0)
	}
}

// Endpoint returns node id's attachment to the switch. The clock is the
// node's virtual clock; receives advance it to each message's arrival time.
func (s *Switch) Endpoint(id int, clock *sim.Clock) *Endpoint {
	if id < 0 || id >= len(s.boxes) {
		panic(fmt.Sprintf("network: endpoint id %d out of range [0,%d)", id, len(s.boxes)))
	}
	return &Endpoint{id: id, sw: s, clock: clock}
}

// Endpoint is one node's interface to the switch.
type Endpoint struct {
	id    int
	sw    *Switch
	clock *sim.Clock
}

// Send transmits payload to node `to` at the sender's current virtual
// time. It never blocks and never drops: the destination's inbox is
// unbounded.
func (e *Endpoint) Send(to, typ int, class Class, payload []byte) {
	e.SendAt(to, typ, class, payload, e.clock.Now())
}

// SendAt transmits like Send but with an explicit virtual send time. It is
// used by protocol servers, which act at a request's arrival time rather
// than at the application thread's current time (interrupt semantics).
// Like Send it never blocks, so a server may send any class from its
// receive loop. It panics with ErrDown once the switch is shut down.
func (e *Endpoint) SendAt(to, typ int, class Class, payload []byte, at sim.Time) {
	m := e.build(to, typ, class, payload, at)
	// Counted BEFORE the message becomes receivable: a receiver may act on
	// it — and a reader snapshot Stats — the instant it is queued.
	e.count(typ, payload)
	e.sw.boxes[to][class].push(m)
}

// TrySendAt is SendAt reporting true: no send is ever refused. It stays
// only because bench/layers.go times it as network.try_send_ns; make lint
// rejects a call to it in internal/.
func (e *Endpoint) TrySendAt(to, typ int, class Class, payload []byte, at sim.Time) bool {
	e.SendAt(to, typ, class, payload, at)
	return true
}

// build assembles one stamped message. It panics with ErrDown on a switch
// that is down, before anything is counted.
func (e *Endpoint) build(to, typ int, class Class, payload []byte, at sim.Time) *Message {
	if to == e.id {
		panic("network: node sent a message to itself")
	}
	select {
	case <-e.sw.down:
		panic(ErrDown)
	default:
	}
	return &Message{
		From:    e.id,
		To:      to,
		Type:    typ,
		Class:   class,
		Payload: payload,
		Send:    at,
		Arrive:  at + e.sw.profile.Latency(len(payload)),
	}
}

// count records one message in the traffic totals.
func (e *Endpoint) count(typ int, payload []byte) {
	bytes := int64(len(payload) + e.sw.profile.HeaderBytes)
	e.sw.stats.Messages.Add(1)
	e.sw.stats.Bytes.Add(bytes)
	e.sw.stats.Frames.Add(1)
	if typ < 0 || typ >= MaxType {
		typ = 0
	}
	e.sw.stats.typeMsgs[typ].Add(1)
	e.sw.stats.typeBytes[typ].Add(bytes)
}

// FramePart attributes one sub-message of a coalesced frame for the
// traffic statistics: its protocol type and the envelope bytes it
// occupies (sub header + payload; the frame builder folds any shared
// envelope prefix into the first part).
type FramePart struct {
	Type  int
	Bytes int
}

// countFrame records one frame: one datagram, len(parts)
// logical messages, total bytes once, and each part's bytes against its
// own type (the per-datagram header overhead is charged to the first
// part, mirroring count's payload+header accounting so the per-type
// bytes still sum to Bytes).
func (e *Endpoint) countFrame(payload []byte, parts []FramePart) {
	total := 0
	for _, p := range parts {
		total += p.Bytes
	}
	if total != len(payload) {
		panic(fmt.Sprintf("network: frame parts sum to %d bytes but payload is %d", total, len(payload)))
	}
	e.sw.stats.Messages.Add(int64(len(parts)))
	e.sw.stats.Bytes.Add(int64(len(payload) + e.sw.profile.HeaderBytes))
	e.sw.stats.Frames.Add(1)
	for i, p := range parts {
		typ, bytes := p.Type, p.Bytes
		if typ < 0 || typ >= MaxType {
			typ = 0
		}
		if i == 0 {
			bytes += e.sw.profile.HeaderBytes
		}
		e.sw.stats.typeMsgs[typ].Add(1)
		e.sw.stats.typeBytes[typ].Add(int64(bytes))
	}
}

// SendFrameAt transmits a coalesced frame: one datagram whose payload
// carries several protocol sub-messages, delivered and routed like any
// other message of type typ but counted as len(parts) logical messages
// attributed to the parts' own types. Latency is computed on the full
// payload, so batching also models the real saving of one wire
// transaction instead of k. No protocol in internal/ sends frames: it stays
// only because bench/layers.go times it as network.frame_send_ns; make lint
// rejects a call to it in internal/.
func (e *Endpoint) SendFrameAt(to, typ int, class Class, payload []byte, parts []FramePart, at sim.Time) {
	m := e.build(to, typ, class, payload, at)
	e.countFrame(payload, parts)
	e.sw.boxes[to][class].push(m)
}

// Recv blocks until a message of the given class arrives and advances the
// endpoint's clock to its arrival time. It returns nil if the switch has
// been shut down.
func (e *Endpoint) Recv(class Class) *Message {
	m := e.recv(class)
	if m != nil {
		e.clock.AdvanceTo(m.Arrive)
	}
	return m
}

// RecvRaw blocks until a message of the given class arrives but does NOT
// touch the clock. Protocol servers use it: a server acts at the message's
// own arrival time, not at the application thread's time. It returns nil
// if the switch has been shut down.
func (e *Endpoint) RecvRaw(class Class) *Message {
	return e.recv(class)
}

// recv is the shared blocking receive: a message if one is queued or
// arrives, nil once the switch is down and the inbox has drained.
func (e *Endpoint) recv(class Class) *Message {
	b := &e.sw.boxes[e.id][class]
	for {
		if m := b.pop(); m != nil {
			return m
		}
		select {
		case <-b.ready:
		case <-e.sw.down:
			// Drain semantics: messages queued before shutdown remain
			// receivable until the inbox empties, then receivers see nil.
			return b.pop()
		}
	}
}

// Shutdown marks the switch down, releasing any goroutine blocked in Recv
// or RecvRaw with a nil message and making subsequent sends panic (the
// abort cascade's unwind signal). Drain semantics: messages already
// queued remain receivable until their inbox empties, after which
// receivers see nil. Shutdown is idempotent — a run abort and a later
// lifecycle Close (dsm.System.Close) may both reach it. Goroutines that
// select on Ready directly are not released by Shutdown; they must pair
// the wait with their owner's done channel (dsm threads awaiting replies
// and mpi ranks both do).
func (s *Switch) Shutdown() {
	s.downOnce.Do(func() { close(s.down) })
}

// Ready returns the channel that signals a possible arrival in this
// endpoint's inbox of one class, so a receiver can wait for a message
// together with other events. The signal carries no message: drain the
// inbox with TryRecvRaw until it returns nil before waiting on Ready
// again. Receivers draining directly must advance their clock to
// Message.Arrive themselves.
func (e *Endpoint) Ready(class Class) <-chan struct{} {
	return e.sw.boxes[e.id][class].ready
}

// TryRecvRaw returns the oldest pending message of the given class, or
// nil. Like RecvRaw it does not touch the clock.
func (e *Endpoint) TryRecvRaw(class Class) *Message {
	return e.sw.boxes[e.id][class].pop()
}
