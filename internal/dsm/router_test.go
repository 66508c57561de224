package dsm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// islandClients starts one goroutine per body on node n, each a client of
// n with its own clock, waits for them and advances n's clock past theirs.
// A client's panic aborts the run, which unblocks the other clients.
func islandClients(n *Node, bodies ...func(cl *Client)) {
	var wg sync.WaitGroup
	clks := make([]sim.Clock, len(bodies))
	for k, body := range bodies {
		clks[k].AdvanceTo(n.Now())
		cl := n.NewClient(&clks[k], ClientCosts{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					n.sys.abort(fmt.Errorf("client %d: %v", k, e))
				}
			}()
			body(cl)
		}()
	}
	wg.Wait()
	for k := range clks {
		n.clock.AdvanceTo(clks[k].Now())
	}
}

// TestReplyRouterClientsPassSync: a default-configuration node accepts
// NewClient, and two of its clients hand a lock, two semaphores and a
// condition variable back and forth. The lock and the condition live at
// node 0, so their grants and acks cross the wire; semaphore 1 lives at
// node 1, so its grants are the node's own server routing to a waiter;
// the condition wake reaches its waiter as a grant node 1 sends itself.
// Each round B holds the lock when it tells A to go, so A can only set
// the flag once B waits on the condition: B waits exactly once a round.
func TestReplyRouterClientsPassSync(t *testing.T) {
	const rounds, lock, cond = 6, 0, 0
	const semGo, semNext = 2, 1 // managed at nodes 0 and 1
	sys := New(Config{Procs: 2})
	defer sys.Close()
	x := sys.MallocPage(16)
	flag := x + 8
	waits := 0
	sys.Register("pair", func(n *Node, _ []byte) {
		if n.ID() != 1 {
			return
		}
		a := func(cl *Client) {
			for i := 0; i < rounds; i++ {
				cl.SemaWait(semGo)
				cl.Acquire(lock)
				cl.WriteI64(x, cl.ReadI64(x)+1)
				cl.WriteI64(flag, int64(i+1))
				cl.CondSignal(cond, lock)
				cl.Release(lock)
				cl.SemaSignal(semNext)
			}
		}
		b := func(cl *Client) {
			for i := 0; i < rounds; i++ {
				if i > 0 {
					cl.SemaWait(semNext)
				}
				cl.Acquire(lock)
				cl.SemaSignal(semGo)
				for cl.ReadI64(flag) < int64(i+1) {
					waits++
					cl.CondWait(cond, lock)
				}
				cl.WriteI64(x, cl.ReadI64(x)+10)
				cl.Release(lock)
			}
		}
		islandClients(n, a, b)
	})
	if err := sys.Run(func(n *Node) {
		n.RunParallel("pair", nil)
		if got := n.ReadI64(x); got != 11*rounds {
			t.Errorf("x = %d, want %d", got, 11*rounds)
		}
		if got := n.ReadI64(flag); got != rounds {
			t.Errorf("flag = %d, want %d", got, rounds)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if waits != rounds {
		t.Errorf("B waited on the condition %d times, want once a round (%d)", waits, rounds)
	}
}

// TestReplyRouterReverseGrants: two clients of node 1 wait on semaphores
// node 0 manages, A's request first; node 0 then grants B's semaphore
// before A's. Each grant must reach its own waiter — a grant handed to
// the wrong client fails SemaWait's semaphore check — whichever thread
// reads it off the wire.
func TestReplyRouterReverseGrants(t *testing.T) {
	const semA, semB = 2, 4 // both managed at node 0
	sys := New(Config{Procs: 2})
	defer sys.Close()
	n0 := sys.Node(0)
	waiting := func(id int) int {
		n0.mu.Lock()
		defer n0.mu.Unlock()
		return len(queueFor(n0.semas, id).waiters)
	}
	until := func(cond func() bool) {
		for !cond() {
			runtime.Gosched()
		}
	}
	var mu sync.Mutex
	granted := 0
	sys.Register("reverse", func(n *Node, _ []byte) {
		if n.ID() == 0 {
			until(func() bool { return waiting(semA) == 1 && waiting(semB) == 1 })
			n.SemaSignal(semB)
			n.SemaSignal(semA)
			return
		}
		wait := func(name string, id int) func(cl *Client) {
			return func(cl *Client) {
				if name == "B" {
					until(func() bool { return waiting(semA) == 1 })
				}
				cl.SemaWait(id)
				mu.Lock()
				granted++
				mu.Unlock()
			}
		}
		islandClients(n, wait("A", semA), wait("B", semB))
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("reverse", nil) }); err != nil {
		t.Fatal(err)
	}
	if granted != 2 {
		t.Fatalf("%d waiters granted, want both", granted)
	}
}

// TestSyncNonHolderIsRunError: on an island, client B releasing — or
// waiting on a condition of — a lock client A holds ends Run with a "does
// not hold" error, and A keeps the lock: the check is the caller's, not the
// node's, so B cannot hand A's token away.
func TestSyncNonHolderIsRunError(t *testing.T) {
	const lock, cond = 1, 0 // managed at node 1: the token is local
	for name, op := range map[string]func(cl *Client){
		"Release":  func(cl *Client) { cl.Release(lock) },
		"CondWait": func(cl *Client) { cl.CondWait(cond, lock) },
	} {
		t.Run(name, func(t *testing.T) {
			sys := New(Config{Procs: 2})
			held := make(chan struct{})
			var holder uint32
			sys.Register("mate", func(n *Node, _ []byte) {
				if n.ID() != 1 {
					return
				}
				islandClients(n, func(a *Client) {
					a.Acquire(lock)
					holder = a.tag
					close(held)
					<-n.sys.done // the abort B's call causes
				}, func(b *Client) {
					<-held
					op(b)
					t.Errorf("%s by a non-holder returned", name)
				})
			})
			var err error
			within(t, "Run", func() { err = sys.Run(func(n *Node) { n.RunParallel("mate", nil) }) })
			if err == nil || !strings.Contains(err.Error(), "does not hold") {
				t.Fatalf("Run error %v, want a \"does not hold\" error", err)
			}
			n := sys.Node(1)
			within(t, "Stats after the abort", func() { n.Stats() })
			if ls := n.lockFor(lock); !ls.held || ls.holderTag != holder {
				t.Errorf("lock held %v by tag %d after the failed %s, want held by A (tag %d)", ls.held, ls.holderTag, name, holder)
			}
		})
	}
}

// BenchmarkLockRoundTrip is one round trip of a lock node 0 manages: a
// client of node 1 acquires it (request, grant) and releases it, then
// node 0 takes it back (forward, grant). "classic" runs node 1's default
// client; "two-clients" alternates two clients added to node 1, so each
// grant routes by its tag. "sema" is node 1 signalling (signal, ack) and
// waiting (wait, grant) on a semaphore node 0 manages, then node 0 doing
// both at home; "cond" is node 1 waiting on a condition of the lock
// (request, grant, registration, ack) while node 0 takes the lock (forward,
// grant), signals at home and hands it back (grant).
func BenchmarkLockRoundTrip(b *testing.B) {
	const lock, sem, cond = 0, 0, 0
	lockTurn := func(cl *Client, go0 func()) {
		cl.Acquire(lock)
		cl.Release(lock)
		go0()
	}
	lockHome := func(n *Node) {
		n.Acquire(lock)
		n.Release(lock)
	}
	for _, tc := range []struct {
		name    string
		clients int
		at1     func(cl *Client, go0 func()) // node 1's turn; calls go0 once
		at0     func(n *Node)
	}{
		{"classic", 0, lockTurn, lockHome},
		{"two-clients", 2, lockTurn, lockHome},
		{"sema", 0, func(cl *Client, go0 func()) {
			cl.SemaSignal(sem)
			cl.SemaWait(sem)
			go0()
		}, func(n *Node) {
			n.SemaSignal(sem)
			n.SemaWait(sem)
		}},
		{"cond", 0, func(cl *Client, go0 func()) {
			cl.Acquire(lock)
			go0()
			cl.CondWait(cond, lock)
			cl.Release(lock)
		}, func(n *Node) {
			n.Acquire(lock)
			n.CondSignal(cond, lock)
			n.Release(lock)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			sys := New(Config{Procs: 2})
			defer sys.Close()
			turn1, turn0 := make(chan struct{}), make(chan struct{})
			sys.Register("roundtrip", func(n *Node, _ []byte) {
				if n.ID() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						turn1 <- struct{}{}
						<-turn0
						tc.at0(n)
					}
					b.StopTimer()
					close(turn1)
					return
				}
				cls := []*Client{&n.thread}
				if tc.clients > 0 {
					cls = nil
					clks := make([]sim.Clock, tc.clients)
					for k := range clks {
						cls = append(cls, n.NewClient(&clks[k], ClientCosts{}))
					}
				}
				go0 := func() { turn0 <- struct{}{} }
				for i := 0; ; i++ {
					if _, ok := <-turn1; !ok {
						break
					}
					tc.at1(cls[i%len(cls)], go0)
				}
				for _, cl := range cls {
					n.clock.AdvanceTo(cl.Now())
				}
			})
			if err := sys.Run(func(n *Node) { n.RunParallel("roundtrip", nil) }); err != nil {
				b.Fatal(err)
			}
		})
	}
}
