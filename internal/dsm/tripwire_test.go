package dsm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/network"
)

// TestMalformedReplyBecomesRunError pins the reply router's tripwire on a
// default-configuration node: the thread that reads a malformed
// reply-class message panics while it parses the payload for routing, and
// that panic must surface as a Run error through recoverAbort.
func TestMalformedReplyBecomesRunError(t *testing.T) {
	sys := New(Config{Procs: 2})
	// A lock grant whose payload is too short for its [i32 id] [u32 tag]
	// routing header, queued on node 0's wire ahead of anything else.
	sys.nodes[1].ep.Send(0, msgLockGrant, network.ClassReply, []byte{1})
	err := sys.Run(func(n *Node) {
		// The flush's first reply read is the malformed grant.
		n.Flush()
		t.Error("Flush returned past a malformed reply")
	})
	if err == nil {
		t.Fatal("Run returned nil; the routing panic was swallowed")
	}
	if !strings.Contains(err.Error(), "short message") {
		t.Fatalf("Run error %q does not carry the routing panic", err)
	}
}

// TestHandlerPanicUnderMuBecomesRunError: a protocol-server handler that
// trips a tripwire while holding n.mu must release the mutex on its way
// out. Node 1 asks node 0 for the diff of an interval node 0 never
// created; serveDiffLocked panics under node 0's n.mu and the run aborts.
// Node 0's application thread then needs that mutex (RunParallel's join
// takes it) before it can notice the abort and unwind — with the mutex
// left locked it blocked there forever and Run never returned.
func TestHandlerPanicUnderMuBecomesRunError(t *testing.T) {
	sys := New(Config{Procs: 2})
	sys.Register("bad-request", func(n *Node, _ []byte) {
		if n.ID() == 1 {
			var w wbuf
			// Page 0, an interval node 0 never created.
			encodeFetch(&w, []fetchItem{{pid: 0, seq: 99}}, false)
			n.ep.SendAt(0, msgFetchReq, network.ClassRequest, w.b, n.Now())
			return
		}
		<-n.sys.done // the abort; now return into the join
	})
	result := make(chan error, 1)
	go func() { result <- sys.Run(func(n *Node) { n.RunParallel("bad-request", nil) }) }()
	select {
	case err := <-result:
		// Run returns only once the protocol servers have drained.
		if err == nil || !strings.Contains(err.Error(), "asked for diff of unknown interval") {
			t.Fatalf("Run error %v does not carry the handler's tripwire", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: the panicking handler left node 0's mutex locked")
	}
	sys.Node(0).Stats() // takes n.mu: must not block either
}
