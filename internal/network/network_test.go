package network

import (
	"testing"
	"testing/quick"

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

func TestSwitchScalesQueues(t *testing.T) {
	for _, tt := range []struct{ n, want int }{
		{2, minQueueDepth},
		{8, minQueueDepth},
		{128, minQueueDepth},
		{129, 32 * 129},
		{256, 32 * 256},
	} {
		if got := queueDepth(tt.n); got != tt.want {
			t.Errorf("queueDepth(%d) = %d, want %d", tt.n, got, tt.want)
		}
		sw := testSwitch(tt.n)
		if got := cap(sw.inboxes[0][0]); got != tt.want {
			t.Errorf("n=%d: inbox capacity %d, want %d", tt.n, got, tt.want)
		}
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

// TestStatsCountBeforeReceivable: a receiver that snapshots the totals the
// moment a message reaches it must find that message already counted —
// plain sends and frames alike (blocking paths count before the enqueue).
func TestStatsCountBeforeReceivable(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)
	const rounds = 20000
	defer sw.Shutdown() // a failed run leaves the sender on a full queue: unwind it
	go func() {
		defer func() { _ = recover() }() // ErrDown after a failure, nothing otherwise
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

func TestTrySendAtDropsWhenFullAndRecovers(t *testing.T) {
	sw := testSwitch(2)
	var c0, c1 sim.Clock
	e0 := sw.Endpoint(0, &c0)
	e1 := sw.Endpoint(1, &c1)
	depth := cap(sw.inboxes[1][int(ClassRequest)])
	for i := 0; i < depth; i++ {
		if !e0.TrySendAt(1, 1, ClassRequest, nil, 0) {
			t.Fatalf("queue rejected message %d below capacity %d", i, depth)
		}
	}
	if e0.TrySendAt(1, 1, ClassRequest, nil, 0) {
		t.Fatal("full queue accepted a message")
	}
	msgs, _ := sw.Stats().Snapshot()
	if msgs != int64(depth) {
		t.Errorf("dropped message was counted: %d msgs, want %d", msgs, depth)
	}
	// Drain one slot: the retry must now succeed — the drop-and-retry
	// pacing converges as soon as the receiver makes any progress.
	e1.RecvRaw(ClassRequest)
	if !e0.TrySendAt(1, 1, ClassRequest, nil, 0) {
		t.Fatal("retry after drain failed")
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
