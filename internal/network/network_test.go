package network

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func testSwitch(n int) *Switch {
	return NewSwitch(n, sim.WireProfile{OneWay: 1000, PerByteNS: 10, HeaderBytes: 36})
}

func TestSendStampsVirtualTimes(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)

	c0.Advance(5000)
	e0.Send(1, 7, ClassRequest, make([]byte, 100))
	m := e1.Recv(ClassRequest)
	if m.Send != 5000 {
		t.Errorf("send time %v, want 5000", m.Send)
	}
	if want := sim.Time(5000 + 1000 + 100*10); m.Arrive != want {
		t.Errorf("arrive %v, want %v", m.Arrive, want)
	}
	if c1.Now() != m.Arrive {
		t.Errorf("receiver clock %v, want %v", c1.Now(), m.Arrive)
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)
	c1.Advance(1_000_000) // receiver is already far ahead
	e0.Send(1, 1, ClassReply, nil)
	e1.Recv(ClassReply)
	if c1.Now() != 1_000_000 {
		t.Errorf("receiver clock moved to %v", c1.Now())
	}
}

func TestClassesAreSeparateQueues(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)
	e0.Send(1, 1, ClassRequest, nil)
	e0.Send(1, 2, ClassReply, nil)
	if m := e1.Recv(ClassReply); m.Type != 2 {
		t.Errorf("reply queue delivered type %d", m.Type)
	}
	if m := e1.Recv(ClassRequest); m.Type != 1 {
		t.Errorf("request queue delivered type %d", m.Type)
	}
}

func TestPerPairFIFO(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)
	for i := 0; i < 50; i++ {
		e0.Send(1, i, ClassRequest, nil)
	}
	for i := 0; i < 50; i++ {
		if m := e1.RecvRaw(ClassRequest); m.Type != i {
			t.Fatalf("message %d arrived out of order (type %d)", i, m.Type)
		}
	}
}

func TestStatsCountMessagesAndHeaderBytes(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	sw.Endpoint(1, &c1)
	e0.Send(1, 1, ClassRequest, make([]byte, 64))
	e0.Send(1, 1, ClassRequest, nil)
	msgs, bytes := sw.Stats().Snapshot()
	if msgs != 2 {
		t.Errorf("messages = %d", msgs)
	}
	if want := int64(64 + 36 + 36); bytes != want {
		t.Errorf("bytes = %d, want %d", bytes, want)
	}
	sw.ResetStats()
	if m, b := sw.Stats().Snapshot(); m != 0 || b != 0 {
		t.Errorf("reset left %d/%d", m, b)
	}
}

func TestSelfSendPanics(t *testing.T) {
	sw := testSwitch(2)
	var c0 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-send")
		}
	}()
	e0.Send(0, 1, ClassRequest, nil)
}

func TestShutdownUnblocksReceivers(t *testing.T) {
	sw := testSwitch(2)
	var c1 sim.Clock
	e1 := sw.Endpoint(1, &c1)
	done := make(chan *Message, 1)
	go func() { done <- e1.RecvRaw(ClassRequest) }()
	sw.Shutdown()
	if m := <-done; m != nil {
		t.Fatalf("expected nil after shutdown, got %+v", m)
	}
}

func TestStatsByType(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	sw.Endpoint(1, &c1)
	e0.Send(1, 3, ClassRequest, make([]byte, 10))
	e0.Send(1, 3, ClassRequest, make([]byte, 20))
	e0.Send(1, 5, ClassReply, make([]byte, 7))
	e0.SendAt(1, MaxType+2, ClassRequest, nil, 0) // out-of-range tag folds into slot 0
	if m, b := sw.Stats().ByType(3); m != 2 || b != 10+36+20+36 {
		t.Errorf("type 3: %d msgs / %d bytes", m, b)
	}
	if m, b := sw.Stats().ByType(5); m != 1 || b != 7+36 {
		t.Errorf("type 5: %d msgs / %d bytes", m, b)
	}
	if m, _ := sw.Stats().ByType(MaxType + 2); m != 1 {
		t.Errorf("out-of-range type not folded into slot 0: %d msgs", m)
	}
	var tm, tb int64
	for typ := 0; typ < MaxType; typ++ {
		m, b := sw.Stats().ByType(typ)
		tm += m
		tb += b
	}
	if m, b := sw.Stats().Snapshot(); tm != m || tb != b {
		t.Errorf("per-type totals %d/%d do not add up to snapshot %d/%d", tm, tb, m, b)
	}
	sw.ResetStats()
	if m, b := sw.Stats().ByType(3); m != 0 || b != 0 {
		t.Errorf("reset left type 3 at %d/%d", m, b)
	}
}

// TestSendFrameAtAttribution: a frame of two parts is one datagram that
// arrives whole under the frame's own type, counts as two logical messages,
// and charges every byte — the datagram header with the first part — to
// the parts' own types, never to the frame's.
func TestSendFrameAtAttribution(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)
	e0.SendFrameAt(1, 9, ClassRequest, make([]byte, 12), []FramePart{{Type: 3, Bytes: 10}, {Type: 3, Bytes: 2}}, 0)
	if m := e1.RecvRaw(ClassRequest); m.Type != 9 || len(m.Payload) != 12 {
		t.Fatalf("frame arrived as type %d with %d bytes, want type 9 with 12", m.Type, len(m.Payload))
	}
	st := sw.Stats()
	if m, b := st.Snapshot(); m != 2 || b != 12+36 {
		t.Errorf("frame of 2 parts counted %d msgs / %d bytes, want 2 / %d", m, b, 12+36)
	}
	if f := st.FrameCount(); f != 1 {
		t.Errorf("frame of 2 parts counted %d datagrams", f)
	}
	if m, b := st.ByType(3); m != 2 || b != 12+36 {
		t.Errorf("type 3: %d msgs / %d bytes, want 2 / %d", m, b, 12+36)
	}
	if m, _ := st.ByType(9); m != 0 {
		t.Errorf("the frame's own type was charged %d messages", m)
	}
}

// TestStatsCountBeforeReceivable: a receiver that snapshots the totals the
// moment a message reaches it must find that message already counted —
// plain sends and frames alike (every send counts before the enqueue).
func TestStatsCountBeforeReceivable(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)
	const rounds = 20000
	go func() {
		for i := 0; i < rounds; i++ {
			if i%2 == 0 {
				e0.SendAt(1, 3, ClassRequest, []byte{1}, 0)
			} else {
				e0.SendFrameAt(1, 9, ClassRequest, []byte{1, 2}, []FramePart{{Type: 3, Bytes: 1}, {Type: 4, Bytes: 1}}, 0)
			}
		}
	}()
	var want int64
	for i := 0; i < rounds; i++ {
		e1.RecvRaw(ClassRequest)
		want += int64(1 + i%2) // a frame counts one message a part
		if got, _ := sw.Stats().Snapshot(); got < want {
			t.Fatalf("message %d received with %d counted, want >= %d", i, got, want)
		}
	}
}

// TestMailboxNeverDropsOrBlocks: an inbox is unbounded. A burst larger
// than any fixed queue depth, with no receiver running, returns from every
// send; the burst is then received in FIFO order with every message
// counted once; and after Shutdown the queued messages still drain before
// RecvRaw reports nil.
func TestMailboxNeverDropsOrBlocks(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)
	const burst = 10_000
	for i := 0; i < burst; i++ {
		e0.SendAt(1, i%MaxType, ClassRequest, []byte{byte(i)}, sim.Time(i))
	}
	if msgs, bytes := sw.Stats().Snapshot(); msgs != burst || bytes != burst*(1+36) {
		t.Fatalf("after %d sends: %d msgs / %d bytes, want %d / %d", burst, msgs, bytes, burst, burst*(1+36))
	}
	if f := sw.Stats().FrameCount(); f != burst {
		t.Fatalf("after %d sends: %d frames", burst, f)
	}
	for i := 0; i < burst/2; i++ {
		if m := e1.RecvRaw(ClassRequest); m.Send != sim.Time(i) || m.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order: sent at %v", i, m.Send)
		}
	}
	sw.Shutdown()
	for i := burst / 2; i < burst; i++ {
		m := e1.RecvRaw(ClassRequest)
		if m == nil || m.Send != sim.Time(i) {
			t.Fatalf("message %d lost or out of order after shutdown: %+v", i, m)
		}
	}
	if m := e1.RecvRaw(ClassRequest); m != nil {
		t.Fatalf("drained inbox delivered %+v after shutdown", m)
	}
	if msgs, _ := sw.Stats().Snapshot(); msgs != burst {
		t.Fatalf("receiving changed the count to %d", msgs)
	}
}

// TestReadyPassesOnWhileQueued: a receiver that takes one message of two
// leaves the ready token behind, so a second receiver waiting on Ready
// (two threads of one node awaiting replies) is not left asleep beside a
// queued message.
func TestReadyPassesOnWhileQueued(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)
	e0.Send(1, 1, ClassReply, nil)
	e0.Send(1, 2, ClassReply, nil)
	for want := 1; want <= 2; want++ {
		select {
		case <-e1.Ready(ClassReply):
		default:
			t.Fatalf("no ready token with message %d queued", want)
		}
		if m := e1.TryRecvRaw(ClassReply); m == nil || m.Type != want {
			t.Fatalf("TryRecvRaw = %+v, want type %d", m, want)
		}
	}
	if m := e1.TryRecvRaw(ClassReply); m != nil {
		t.Fatalf("empty inbox delivered %+v", m)
	}
}

// TestMailboxManySendersTwoReceivers: four senders and two receivers
// share one inbox, the receivers draining with TryRecvRaw and waiting on
// Ready as a node's threads do. Every message arrives exactly once, and
// none is left queued while both receivers wait.
func TestMailboxManySendersTwoReceivers(t *testing.T) {
	const senders, per = 4, 2000
	sw := testSwitch(senders + 1)
	clocks := make([]sim.Clock, senders+1)
	rx := sw.Endpoint(senders, &clocks[senders])
	var swg sync.WaitGroup
	for s := 0; s < senders; s++ {
		e := sw.Endpoint(s, &clocks[s])
		swg.Add(1)
		go func() {
			defer swg.Done()
			for i := 0; i < per; i++ {
				e.SendAt(senders, 1, ClassReply, nil, 0)
			}
		}()
	}
	got := make(chan *Message, senders*per)
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				for m := rx.TryRecvRaw(ClassReply); m != nil; m = rx.TryRecvRaw(ClassReply) {
					got <- m
				}
				select {
				case <-rx.Ready(ClassReply):
				case <-stop:
					return
				}
			}
		}()
	}
	from := make([]int, senders)
	for k := 0; k < senders*per; k++ {
		select {
		case m := <-got:
			from[m.From]++
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d messages received, the rest stranded: %v", k, senders*per, from)
		}
	}
	close(stop)
	rwg.Wait()
	swg.Wait()
	for s, n := range from {
		if n != per {
			t.Errorf("sender %d: %d messages received, want %d", s, n, per)
		}
	}
	if m := rx.TryRecvRaw(ClassReply); m != nil {
		t.Errorf("a message was delivered twice or left over: %+v", m)
	}
}

func TestLatencyMonotonicInSizeProperty(t *testing.T) {
	p := sim.WireProfile{OneWay: 63000, PerByteNS: 90}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return p.Latency(x) <= p.Latency(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
