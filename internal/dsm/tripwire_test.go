package dsm

import (
	"errors"
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

// TestMalformedSyncRequestBecomesRunError: a lock request, semaphore wait
// or condition wait cut one byte short, sent to the manager, ends Run with
// the decoder's short-message error and leaves the manager's n.mu free; one
// with a byte past its body ends Run with the handler's error the same way.
func TestMalformedSyncRequestBecomesRunError(t *testing.T) {
	for name, typ := range map[string]int{"AcqReq": msgAcqReq, "SemaWait": msgSemaWait, "CondWait": msgCondWait} {
		for _, bad := range []struct {
			name, want string
			mangle     func([]byte) []byte
		}{
			{"short", "short message", func(b []byte) []byte { return b[:len(b)-1] }},
			{"long", "bytes past", func(b []byte) []byte { return append(b, 0) }},
		} {
			t.Run(name+"/"+bad.name, func(t *testing.T) {
				sys := New(Config{Procs: 2})
				sys.Register("bad-request", func(n *Node, _ []byte) {
					if n.ID() == 1 {
						q := syncReq{waiter: waiter{tag: 1, vc: n.vc.clone()}}
						var w wbuf
						putSyncReq(&w, nil, typ, &q) // id 0: managed at node 0
						n.ep.SendAt(0, typ, network.ClassRequest, bad.mangle(w.b), n.Now())
						return
					}
					<-n.sys.done // the abort; now return into the join
				})
				var err error
				within(t, "Run", func() { err = sys.Run(func(n *Node) { n.RunParallel("bad-request", nil) }) })
				if err == nil || !strings.Contains(err.Error(), bad.want) {
					t.Fatalf("Run error %v does not carry %q", err, bad.want)
				}
				within(t, "Stats after the abort", func() { sys.Node(0).Stats() })
			})
		}
	}
}

// TestAbortInFaultRoundBecomesRunError: an abort that reaches a thread in a
// fault round's network section, where n.mu is released, must unwind as an
// ordinary run error and leave n.mu free. The master accesses a page node 1
// wrote after the system has aborted, so the fetch finds the switch down.
// ReadF64s releases n.mu by defer: an unwind that left the section without
// n.mu was a fatal "unlock of unlocked mutex". The scalar accesses reach the
// fault round too; one that left n.mu locked blocks Stats after Run.
func TestAbortInFaultRoundBecomesRunError(t *testing.T) {
	for name, access := range map[string]func(n *Node, a Addr){
		"ReadF64s": func(n *Node, a Addr) { n.ReadF64s(a, make([]float64, 2)) },
		"ReadF64":  func(n *Node, a Addr) { n.ReadF64(a) },
		"WriteF64": func(n *Node, a Addr) { n.WriteF64(a, 3) },
	} {
		t.Run(name, func(t *testing.T) {
			sys := New(Config{Procs: 2, DisableGC: true})
			a := sys.MallocPage(PageSize)
			sys.Register("write", func(n *Node, _ []byte) {
				if n.ID() == 1 {
					n.WriteF64s(a, []float64{1, 2})
				}
			})
			cause := errors.New("deliberate abort")
			var err error
			within(t, "Run", func() {
				err = sys.Run(func(n *Node) {
					n.RunParallel("write", nil)
					n.sys.abort(cause)
					access(n, a)
					t.Errorf("%s returned past an abort", name)
				})
			})
			if !errors.Is(err, cause) {
				t.Fatalf("Run returned %v, want the abort error %v", err, cause)
			}
			within(t, "Stats after the abort", func() { sys.Node(0).Stats() })
		})
	}
}

// within fails the test unless f returns within ten seconds: a node mutex
// an unwind leaves locked blocks the next Lock on it for good.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return: an unwind left a node's mutex locked", what)
	}
}

// TestAbortInGCWaveBecomesRunError: an abort that reaches a collector
// validation wave unwinds through the fork episode as a run error and
// leaves every node's mutex free. Node 1 rewrites a page node 0 homes, so
// at the next fork the master validates it and asks node 1 for the diff.
// The master holds node 1's mutex across that fork, so the request waits
// unserved; once it is on the wire the system aborts and the mutex is let
// go.
func TestAbortInGCWaveBecomesRunError(t *testing.T) {
	sys := New(Config{Procs: 2, GCPressure: 1})
	a := sys.MallocPage(PageSize) // page 0: homed at node 0
	sys.Register("write", func(n *Node, _ []byte) {
		if n.ID() == 1 {
			n.WriteF64s(a, []float64{1, 2})
		}
	})
	sys.Register("noop", func(*Node, []byte) {})
	fetchReqs := func() int64 { m, _ := sys.sw.Stats().ByType(msgFetchReq); return m }
	cause := errors.New("deliberate abort")
	var err error
	within(t, "Run", func() {
		err = sys.Run(func(n *Node) {
			n.RunParallel("write", nil)
			before := fetchReqs()
			n1 := sys.Node(1)
			n1.mu.Lock() // node 1's server cannot answer until the abort
			go func() {
				for fetchReqs() == before {
					time.Sleep(time.Millisecond)
				}
				sys.abort(cause)
				n1.mu.Unlock()
			}()
			n.RunParallel("noop", nil)
			t.Error("RunParallel returned past an abort")
		})
	})
	if !errors.Is(err, cause) {
		t.Fatalf("Run returned %v, want the abort error %v", err, cause)
	}
	for i := range 2 {
		var st NodeStats
		within(t, "Stats after the abort", func() { st = sys.Node(i).Stats() })
		if i == 0 && (st.GCPurges != 1 || st.GCPagesValidated != 0) {
			t.Errorf("master ran %d purges, validated %d pages; want the abort inside its one wave",
				st.GCPurges, st.GCPagesValidated)
		}
	}
}

// TestDepartureSendUnwindsHoldingMu: the barrier's departure wave sends
// with n.mu released (forwardDeparturesLocked), one send at a time on a
// flat tree and all at once on a combining tree. A send that meets a
// switch already down must unwind with n.mu re-taken: the barrier releases
// n.mu with a deferred Unlock, and an unlock of an unlocked mutex is fatal
// to the whole binary.
func TestDepartureSendUnwindsHoldingMu(t *testing.T) {
	for _, procs := range []int{2, 32} {
		sys := New(Config{Procs: procs})
		n := sys.Node(0)
		if tree := n.gcTreeConsensus(); tree != (procs > 2) {
			t.Fatalf("procs %d: combining-tree consensus %v", procs, tree)
		}
		sys.abort(errors.New("deliberate abort"))
		var r any
		func() {
			defer func() { r = recover() }()
			n.mu.Lock()
			defer n.mu.Unlock()
			vc := n.vc.clone()
			n.forwardDeparturesLocked(&n.thread, vc, []struct {
				from int
				vc   VectorClock
			}{{from: 1, vc: vc}})
		}()
		if r != network.ErrDown {
			t.Errorf("procs %d: departure to a downed switch unwound with %v, want %v", procs, r, network.ErrDown)
		}
		if !n.mu.TryLock() {
			t.Fatalf("procs %d: n.mu left locked", procs)
		}
		n.mu.Unlock()
		sys.Close()
	}
}

// TestSyncSendUnwindsWithMuFree: every synchronization send made under n.mu
// — a semaphore signal, a flush, a barrier arrival, the grant of a lock's
// release handoff, the grant of a condition wake at the lock's manager — and
// the condition wait and semaphore wait, which send without it, must unwind
// from a switch already down with n.mu free: the site releases n.mu by
// defer, so a later Lock on the node (a running handler, Stats after Run)
// does not block.
func TestSyncSendUnwindsWithMuFree(t *testing.T) {
	const id = 0 // managed at node 0
	for name, op := range map[string]func(sys *System){
		"SemaSignal": func(sys *System) { sys.Node(1).SemaSignal(id) },
		"SemaWait":   func(sys *System) { sys.Node(1).SemaWait(id) },
		"Flush":      func(sys *System) { sys.Node(0).Flush() },
		"Barrier":    func(sys *System) { sys.Node(1).Barrier() },
		"Release": func(sys *System) {
			n := sys.Node(0)
			ls := n.lockFor(id)
			ls.held, ls.holderTag = true, n.thread.tag
			ls.pending = []waiter{{from: 1, vc: newVC(2)}}
			n.thread.held = []int{id}
			n.Release(id)
		},
		"CondSignal": func(sys *System) {
			n := sys.Node(0)
			queueFor(n.conds, id).waiters = []waiter{{from: 1, vc: newVC(2)}}
			n.CondSignal(id, id)
		},
		"CondWait": func(sys *System) {
			n := sys.Node(1)
			n.lockFor(id).held = true
			n.thread.held = []int{id}
			n.CondWait(id, id)
		},
	} {
		t.Run(name, func(t *testing.T) {
			sys := New(Config{Procs: 2, DisableGC: true})
			defer sys.Close()
			sys.abort(errors.New("deliberate abort"))
			var r any
			within(t, name, func() {
				defer func() { r = recover() }()
				op(sys)
			})
			if r != network.ErrDown {
				t.Errorf("%s on a downed switch unwound with %v, want %v", name, r, network.ErrDown)
			}
			for i := range 2 {
				if n := sys.Node(i); !n.mu.TryLock() {
					t.Errorf("%s left node %d's n.mu locked", name, i)
				} else {
					n.mu.Unlock()
				}
			}
		})
	}
}
