package dsm

import (
	"runtime"
	"testing"
	"time"
)

// syncScript drives a 3-node system one step at a time from the test
// goroutine: each node's region runs the commands sent to it, in order,
// so which node acts when is fixed by the script, not by the scheduler.
type syncScript struct {
	t    *testing.T
	sys  *System
	cmds []chan func(n *Node)
}

func newSyncScript(t *testing.T, sys *System) *syncScript {
	s := &syncScript{t: t, sys: sys}
	for range sys.Procs() {
		s.cmds = append(s.cmds, make(chan func(n *Node), 4))
	}
	sys.Register("script", func(n *Node, _ []byte) {
		for f := range s.cmds[n.ID()] {
			f(n)
		}
	})
	return s
}

// start hands node i a command and returns a channel closed once it
// has returned; the command may block until a later step releases it.
func (s *syncScript) start(i int, f func(n *Node)) chan struct{} {
	done := make(chan struct{})
	s.cmds[i] <- func(n *Node) {
		f(n)
		close(done)
	}
	return done
}

// wait blocks until ch closes, failing the test if the run aborts or
// stalls first.
func (s *syncScript) wait(ch chan struct{}) {
	s.t.Helper()
	select {
	case <-ch:
	case <-s.sys.done:
		s.t.Fatal("the run aborted mid-script")
	case <-time.After(10 * time.Second):
		s.t.Fatal("a script step did not return")
	}
}

// do runs one command on node i to completion.
func (s *syncScript) do(i int, f func(n *Node)) {
	s.t.Helper()
	s.wait(s.start(i, f))
}

// served returns how many requests node i's protocol server has taken.
func (s *syncScript) served(i int) int64 { return s.sys.Node(i).Stats().Interrupts }

// settle waits until node i's server has taken want requests: the
// requests a step sends without awaiting a reply (a condition signal, a
// manager's forward) have then been handled.
func (s *syncScript) settle(i int, want int64) {
	s.t.Helper()
	s.until(func() bool { return s.served(i) >= want })
}

// until yields until cond holds.
func (s *syncScript) until(cond func() bool) {
	s.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			s.t.Fatal("a script step never took effect")
		}
		runtime.Gosched()
	}
}

// TestSyncRoundTrafficPins pins the messages and bytes of every
// synchronization message type over a 3-node script that takes each path
// of the manager round once or more: lock acquires of 2 and 3 hops, a
// forward that meets a free token and one that meets a held lock,
// semaphore waits at a remote and at the local manager, banked signals,
// condition waits, signals and broadcasts with the lock's manager remote
// and local, and a flush. Every node writes a shared word in its critical
// sections, so trailers carry records and grants carry data. Lock 0 and
// lock 3 live at node 0, semaphore 4 at node 1.
func TestSyncRoundTrafficPins(t *testing.T) {
	const lockA, lockB, cond, sem = 0, 3, 0, 4
	sys := New(Config{Procs: 3})
	defer sys.Close()
	x := sys.MallocPage(64)
	s := newSyncScript(t, sys)
	bump := func(n *Node, k int) {
		a := x + Addr(8*k)
		n.WriteI64(a, n.ReadI64(a)+1)
	}
	critical := func(lock int) func(n *Node) {
		return func(n *Node) {
			n.Acquire(lock)
			bump(n, n.ID())
			n.Release(lock)
		}
	}
	result := make(chan error, 1)
	go func() { result <- sys.Run(func(n *Node) { n.RunParallel("script", nil) }) }()

	// Locks. The token starts at node 0, lock A's manager.
	s.do(1, critical(lockA)) // 2 hops: request, grant from the manager's free token
	s.do(2, critical(lockA)) // 3 hops: request, forward, grant; the forward meets node 1's free token
	s.do(0, critical(lockA)) // the manager's own acquire: forward, grant
	s.do(2, func(n *Node) { n.Acquire(lockA) })
	s1 := s.served(2)
	acq := s.start(1, func(n *Node) { n.Acquire(lockA) })
	s.settle(2, s1+1) // the forward meets node 2 holding the lock
	s.do(2, func(n *Node) { bump(n, 2); n.Release(lockA) })
	s.wait(acq)
	s.do(1, func(n *Node) { bump(n, 1); n.Release(lockA) })

	// Semaphores, managed at node 1.
	s1 = s.served(1)
	p := s.start(0, func(n *Node) { n.SemaWait(sem) }) // a remote wait that blocks
	s.settle(1, s1+1)
	s.do(2, func(n *Node) { bump(n, 2); n.SemaSignal(sem) })
	s.wait(p)
	s.do(0, func(n *Node) { bump(n, 0); n.SemaSignal(sem) }) // banked
	s.do(2, func(n *Node) { n.SemaWait(sem) })               // a remote wait on the banked signal
	p = s.start(1, func(n *Node) { n.SemaWait(sem) })        // a wait at the manager
	s.do(2, func(n *Node) { bump(n, 2); n.SemaSignal(sem) })
	s.wait(p)
	s.do(0, func(n *Node) { n.SemaSignal(sem) }) // banked
	s.do(1, func(n *Node) { n.SemaWait(sem) })   // the manager's wait on the banked signal
	s1 = s.served(1)
	p = s.start(2, func(n *Node) { n.SemaWait(sem) })
	s.settle(1, s1+1)
	s.do(1, func(n *Node) { bump(n, 1); n.SemaSignal(sem) }) // the manager's signal to a remote waiter
	s.wait(p)
	s.do(1, func(n *Node) { n.SemaSignal(sem) }) // banked at the manager
	s.do(0, func(n *Node) { n.SemaWait(sem) })

	// Condition variables on lock B, whose manager is node 0. Node 1 waits
	// at the remote manager, node 0 at its own; node 2 signals (waking node
	// 1) and broadcasts (waking node 0) from a remote node.
	s0 := s.served(0)
	w1 := s.start(1, func(n *Node) { n.Acquire(lockB); n.CondWait(cond, lockB) })
	s.settle(0, s0+2) // the request and the registration
	ops := sys.Node(0).Stats().CondOps
	w0 := s.start(0, func(n *Node) { n.Acquire(lockB); n.CondWait(cond, lockB) })
	// A wait at the manager registers and frees the lock under the node's
	// mutex, where it counts the operation.
	s.until(func() bool { return sys.Node(0).Stats().CondOps > ops })
	s.do(2, func(n *Node) { n.Acquire(lockB); bump(n, 2) })
	s0, s1, s2 := s.served(0), s.served(1), s.served(2)
	s.do(2, func(n *Node) { n.CondSignal(cond, lockB) })
	s.settle(0, s0+1)
	s.settle(2, s2+1) // node 1's wake, forwarded to node 2, waits on its release
	s.do(2, func(n *Node) { n.CondBroadcast(cond, lockB) })
	s.settle(0, s0+2)
	s.settle(1, s1+1) // node 0's wake, forwarded to node 1 behind node 2
	s.do(2, func(n *Node) { n.Release(lockB) })
	s.wait(w1)
	s.do(1, func(n *Node) { bump(n, 1); n.Release(lockB) })
	s.wait(w0)
	s.do(0, func(n *Node) { n.Release(lockB) })
	// Now the manager signals and broadcasts: nodes 1 and 2 wait.
	s0 = s.served(0)
	w1 = s.start(1, func(n *Node) { n.Acquire(lockB); n.CondWait(cond, lockB) })
	s.settle(0, s0+2)
	w2 := s.start(2, func(n *Node) { n.Acquire(lockB); n.CondWait(cond, lockB) })
	s.settle(0, s0+4)
	s.do(0, func(n *Node) { n.Acquire(lockB); bump(n, 0); n.CondSignal(cond, lockB) })
	s1 = s.served(1)
	s.do(0, func(n *Node) { n.CondBroadcast(cond, lockB) })
	s.settle(1, s1+1) // node 2's wake, forwarded to node 1 behind node 0
	s.do(0, func(n *Node) { n.Release(lockB) })
	s.wait(w1)
	s.do(1, func(n *Node) { n.Release(lockB) })
	s.wait(w2)
	s.do(2, func(n *Node) { n.Release(lockB) })

	// A flush: one push and one acknowledgment per other node.
	s.do(2, func(n *Node) { bump(n, 2); n.Flush() })

	for _, c := range s.cmds {
		close(c)
	}
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}

	st := sys.Switch().Stats()
	for _, pin := range []struct {
		name           string
		typ            int
		messages, size int64
	}{
		{"msgAcqReq", msgAcqReq, 8, 384},
		{"msgAcqFwd", msgAcqFwd, 9, 468},
		{"msgLockGrant", msgLockGrant, 15, 998},
		{"msgSemaSignal", msgSemaSignal, 4, 248},
		{"msgSemaWait", msgSemaWait, 4, 192},
		{"msgSemaGrant", msgSemaGrant, 4, 262},
		{"msgSemaAck", msgSemaAck, 4, 160},
		{"msgCondWait", msgCondWait, 3, 156},
		{"msgCondWaitAck", msgCondWaitAck, 3, 120},
		{"msgCondSignal", msgCondSignal, 1, 44},
		{"msgCondBroadcast", msgCondBroadcast, 1, 44},
		{"msgFlush", msgFlush, 2, 127},
		{"msgFlushAck", msgFlushAck, 2, 72},
	} {
		if m, b := st.ByType(pin.typ); m != pin.messages || b != pin.size {
			t.Errorf("%s: %d messages, %d bytes; want %d, %d", pin.name, m, b, pin.messages, pin.size)
		}
	}
}
