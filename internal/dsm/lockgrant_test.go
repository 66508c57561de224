package dsm

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// Lock grants carry the critical section's data (lock.go): the releaser
// appends the diffs of the lock's pages the grantee lacks, and the grantee
// brings its copies current before its critical section starts.

// waitUntil yields until cond, read under the node's mutex, holds.
func waitUntil(n *Node, cond func() bool) {
	for {
		n.mu.Lock()
		ok := cond()
		n.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// chainDone holds a node that finished its lock chain until every node has:
// a barrier arrival or a join carries intervals, and a node still in the
// chain would incorporate them as notices older than its request, which no
// grant can cover.
func chainDone(n *Node, finished *sync.WaitGroup) {
	finished.Done()
	finished.Wait()
	n.Barrier()
}

// lockFaultRounds sums the fault rounds nodes took holding a lock.
func lockFaultRounds(sys *System) int64 { return sys.TotalStats().LockFaultRounds }

// TestLockGrantChainTakesNoFaultRound: three nodes bump one counter page
// under one lock, every node holding a copy beforehand. Each grant brings
// the grantee's copy current, so no holder ever takes a fault round on it,
// and the count is exact. Whatever order the chain takes, some grantee
// lacks intervals of both other nodes, so some holder forwards a diff it
// only kept (one a third node created); with no fault round anywhere, that
// diff can only have arrived on the grant.
func TestLockGrantChainTakesNoFaultRound(t *testing.T) {
	const procs, rounds = 3, 12
	sys := New(Config{Procs: procs})
	defer sys.Close()
	a := sys.MallocPage(8)
	var finished sync.WaitGroup
	finished.Add(procs)
	sys.Register("chain", func(n *Node, _ []byte) {
		_ = n.ReadI64(a) // a copy on every node: the home's, zeros elsewhere
		n.Barrier()
		for i := 0; i < rounds; i++ {
			n.Acquire(0)
			n.WriteI64(a, n.ReadI64(a)+1)
			n.Release(0)
		}
		chainDone(n, &finished)
	})
	if err := sys.Run(func(n *Node) {
		n.RunParallel("chain", nil)
		if got := n.ReadI64(a); got != procs*rounds {
			t.Errorf("counter = %d, want %d", got, procs*rounds)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := lockFaultRounds(sys); got != 0 {
		t.Errorf("%d fault rounds under the lock, want 0: a grant did not carry the counter's diffs", got)
	}
	if st := sys.TotalStats(); st.DiffsApplied == 0 {
		t.Error("no diff applied anywhere: the chain never handed the page across nodes")
	}
}

// TestLockGrantOlderNoticeStillFaults: a copy owing a notice older than
// the grant's delta — node 2's write, learned at a barrier — cannot be
// brought current by the grant, so it faults under the lock as it always
// did, and reads both writes.
func TestLockGrantOlderNoticeStillFaults(t *testing.T) {
	sys := New(Config{Procs: 3})
	defer sys.Close()
	a := sys.MallocPage(24)
	held := make(chan struct{})
	var w0, w2 int64
	sys.Register("older", func(n *Node, _ []byte) {
		_ = n.ReadI64(a)
		if n.ID() == 2 {
			n.WriteI64(a+16, 22)
		}
		n.Barrier() // nodes 0 and 1 now owe node 2's notice on the page
		switch n.ID() {
		case 0:
			n.Acquire(0) // the manager's own free token
			close(held)
			waitUntil(n, func() bool { return len(n.lockFor(0).pending) > 0 })
			n.WriteI64(a, 7) // faults node 2's diff under the lock, then twins
			n.Release(0)     // grants node 1 this interval's diff, not node 2's
		case 1:
			<-held
			n.Acquire(0)
			w0, w2 = n.ReadI64(a), n.ReadI64(a+16)
			n.Release(0)
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("older", nil) }); err != nil {
		t.Fatal(err)
	}
	if w0 != 7 || w2 != 22 {
		t.Errorf("node 1 read %d and %d under the lock, want 7 and 22", w0, w2)
	}
	if st := sys.Node(1).Stats(); st.LockFaultRounds != 1 {
		t.Errorf("node 1 took %d fault rounds under the lock, want 1 (the older notice)", st.LockFaultRounds)
	}
}

// TestLockGrantForwardsWhatItFaulted: a holder faulting under the lock on
// a copy owing four notices fetches their diffs — never a squash — and
// keeps them, so its grant carries them on with its own: the grantee, which
// lacked all five, takes no fault round.
func TestLockGrantForwardsWhatItFaulted(t *testing.T) {
	sys := New(Config{Procs: 3})
	defer sys.Close()
	a := sys.MallocPage(24)
	wrote, held := make(chan struct{}), make(chan struct{})
	var w0, w2 int64
	sys.Register("forward", func(n *Node, _ []byte) {
		_ = n.ReadI64(a)
		n.Barrier()
		switch n.ID() {
		case 2: // four intervals on the page, written outside lock 1
			for k := int64(1); k <= 4; k++ {
				n.WriteI64(a+16, k)
				n.Acquire(1)
				n.Release(1)
			}
			close(wrote)
		case 0:
			<-wrote
			n.Acquire(1) // learns node 2's four notices, with no data
			n.Release(1)
			n.Acquire(0)
			close(held)
			waitUntil(n, func() bool { return len(n.lockFor(0).pending) > 0 })
			n.WriteI64(a, 7) // the fault round under lock 0
			n.Release(0)
		case 1:
			<-held
			n.Acquire(0)
			w0, w2 = n.ReadI64(a), n.ReadI64(a+16)
			n.Release(0)
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("forward", nil) }); err != nil {
		t.Fatal(err)
	}
	if w0 != 7 || w2 != 4 {
		t.Errorf("node 1 read %d and %d under the lock, want 7 and 4", w0, w2)
	}
	if got := sys.Node(0).Stats().LockFaultRounds; got != 1 {
		t.Errorf("node 0 took %d fault rounds under the lock, want 1", got)
	}
	if got := sys.Node(1).Stats().LockFaultRounds; got != 0 {
		t.Errorf("node 1 took %d fault rounds under the lock, want 0", got)
	}
}

// TestLockGrantCondWake: a condition-variable wake is an ordinary grant,
// and carries the signaler's write to the woken waiter's copy.
func TestLockGrantCondWake(t *testing.T) {
	sys := New(Config{Procs: 2})
	defer sys.Close()
	a := sys.MallocPage(8)
	var got int64
	sys.Register("wake", func(n *Node, _ []byte) {
		_ = n.ReadI64(a)
		n.Barrier()
		if n.ID() == 1 {
			n.Acquire(0)
			n.CondWait(0, 0)
			got = n.ReadI64(a)
			n.Release(0)
			return
		}
		waitUntil(n, func() bool { return len(queueFor(n.conds, 0).waiters) > 0 })
		n.Acquire(0)
		n.WriteI64(a, 42)
		n.CondSignal(0, 0)
		n.Release(0) // the wake-grant to node 1
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("wake", nil) }); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("woken waiter read %d, want 42", got)
	}
	if st := sys.Node(1).Stats(); st.LockFaultRounds != 0 {
		t.Errorf("woken waiter took %d fault rounds under the lock, want 0", st.LockFaultRounds)
	}
}

// TestLockGrantIsland: two islands of three threads bump one counter under
// one lock. The token, and with it the lock's data, is island-level:
// island-mates hand the lock over locally, a grant between islands brings
// the island's copy current, and no thread faults holding the lock.
func TestLockGrantIsland(t *testing.T) {
	const procs, threads, rounds = 2, 3, 8
	sys := New(Config{Procs: procs})
	defer sys.Close()
	a := sys.MallocPage(8)
	var finished sync.WaitGroup
	finished.Add(procs)
	sys.Register("island", func(n *Node, _ []byte) {
		_ = n.ReadI64(a)
		n.Barrier()
		var wg sync.WaitGroup
		clks := make([]sim.Clock, threads)
		for k := range clks {
			clks[k].AdvanceTo(n.Now())
			cl := n.NewClient(&clks[k], ClientCosts{Lock: 100})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if e := recover(); e != nil {
						t.Errorf("island thread: %v", e)
					}
				}()
				for i := 0; i < rounds; i++ {
					cl.Acquire(0)
					cl.WriteI64(a, cl.ReadI64(a)+1)
					cl.Release(0)
				}
			}()
		}
		wg.Wait()
		for k := range clks {
			n.clock.AdvanceTo(clks[k].Now())
		}
		chainDone(n, &finished)
	})
	if err := sys.Run(func(n *Node) {
		n.RunParallel("island", nil)
		if got := n.ReadI64(a); got != procs*threads*rounds {
			t.Errorf("counter = %d, want %d", got, procs*threads*rounds)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := lockFaultRounds(sys); got != 0 {
		t.Errorf("%d fault rounds under the lock, want 0", got)
	}
}

// protoRecount recomputes a quiescent node's metadata gauge from what it
// holds: interval records with their diffs, and twins. An own diff the
// modelled node has not paid for counts at PageSize, the twin it keeps.
func protoRecount(n *Node) int64 {
	var b int64
	for _, have := range n.intervals {
		for _, ivl := range have {
			b += ivlRecordBytes(ivl)
			for pid, d := range ivl.diffs {
				if ivl.creator == n.id && slices.Contains(n.pages[pid].unpaid, ivl) {
					b += PageSize
				} else {
					b += int64(len(d))
				}
			}
		}
	}
	for _, pg := range n.pages {
		if pg != nil && pg.holds() && pg.twin != nil {
			b += PageSize
		}
	}
	return b
}

// foreignDiffBytes is what a node keeps of other nodes' diffs.
func foreignDiffBytes(n *Node) int64 {
	var b int64
	for c, have := range n.intervals {
		for _, ivl := range have {
			for _, d := range ivl.diffs {
				if c != n.id {
					b += int64(len(d))
				}
			}
		}
	}
	return b
}

// TestLockGrantRetainedDiffsRetire: collecting at every opportunity, the
// foreign diffs a lock chain keeps for its grants are charged to the
// metadata gauge and freed with their interval records — the gauge equals
// what the nodes hold, none of the chain's diffs survive the closing
// episodes, and no node is ever asked for a diff of a retired interval
// (that tripwire fails the run).
func TestLockGrantRetainedDiffsRetire(t *testing.T) {
	const procs, rounds = 3, 30
	sys := New(Config{Procs: procs, GCPressure: 1})
	defer sys.Close()
	a := sys.MallocPage(8)
	own := sys.MallocPage(procs * PageSize)
	kept := make([]int64, procs)
	sys.Register("retire", func(n *Node, _ []byte) {
		_ = n.ReadI64(a)
		n.Barrier()
		for i := 0; i < rounds; i++ {
			n.Acquire(0)
			n.mu.Lock()
			kept[n.id] = max(kept[n.id], foreignDiffBytes(n))
			n.mu.Unlock()
			n.WriteI64(a, n.ReadI64(a)+1)
			n.Release(0)
		}
		// Episodes that retire something. A floor's records are freed when
		// the next floor is processed, and an episode whose gate a consensus
		// floor holds shut finishes that floor instead of announcing its own:
		// six give the chain's records two floors above them.
		for e := 0; e < 6; e++ {
			n.WriteI64(own+Addr(n.id*PageSize), int64(e))
			n.Barrier()
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("retire", nil) }); err != nil {
		t.Fatal(err)
	}
	var peak int64
	for i := 0; i < procs; i++ {
		n := sys.Node(i)
		peak = max(peak, kept[i])
		if got, want := n.Stats().ProtoBytes, protoRecount(n); got != want {
			t.Errorf("node %d: metadata gauge %d, holds %d", i, got, want)
		}
		if b := foreignDiffBytes(n); b != 0 {
			t.Errorf("node %d still keeps %d bytes of foreign diffs after the closing episodes", i, b)
		}
	}
	if peak == 0 {
		t.Error("no node kept a foreign diff: the chain exercised nothing")
	}
	if st := sys.TotalStats(); st.IntervalsRetired == 0 {
		t.Error("nothing retired")
	}
}

// TestLockGrantFreeTokenWaitsForRelease: a cached token handed out by the
// holder's protocol server (a forwarded request) or by the manager (a
// direct request) departs no earlier than the release that freed it, even
// when the request reaches the server at an earlier virtual time.
func TestLockGrantFreeTokenWaitsForRelease(t *testing.T) {
	sys := New(Config{Procs: 2})
	defer sys.Close()
	released := make(chan sim.Time)
	var late [2]sim.Time
	sys.Register("late", func(n *Node, _ []byte) {
		// Lock 0: node 1 holds it 10 ms; node 0, the manager, then forwards
		// its own request to node 1's server.
		// Lock 2: node 0, the manager, holds it 10 ms; node 1's request
		// then reaches the manager's server.
		hold, ask := 1, 0
		for _, id := range []int{0, 2} {
			switch n.ID() {
			case hold:
				n.Acquire(id)
				n.Compute(1e6)
				n.Release(id)
				released <- n.Now()
			case ask:
				rel := <-released
				n.Acquire(id)
				late[id/2] = rel - n.Now()
				n.Release(id)
			}
			hold, ask = ask, hold
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("late", nil) }); err != nil {
		t.Fatal(err)
	}
	for i, d := range late {
		if d > 0 {
			t.Errorf("path %d: the grant reached the acquirer %v before the release that freed the token", i, d)
		}
	}
}

// inFreeList reports whether b's first byte lies in a buffer on one of the
// pool's free lists: a released buffer.
func inFreeList(p *bufPool, b []byte) bool {
	at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	for i := range p {
		p[i].mu.Lock()
		for _, f := range p[i].free {
			if lo := uintptr(unsafe.Pointer(unsafe.SliceData(f))); at >= lo && at < lo+uintptr(cap(f)) {
				p[i].mu.Unlock()
				return true
			}
		}
		p[i].mu.Unlock()
	}
	return false
}

// TestLockGrantChainOutlivesReleasedGrant: node 0 writes under the lock;
// node 1 takes the grant, whose payload goes back to the pool, poisoned,
// once its diff is applied and retained, and hands the lock on to node 2
// without touching the page. Node 2's grant carries node 1's kept copy of
// node 0's diff — not a view into the released payload — so node 2 reads
// node 0's bytes under the lock with no fault round anywhere.
func TestLockGrantChainOutlivesReleasedGrant(t *testing.T) {
	sys := New(Config{Procs: 3})
	defer sys.Close()
	a := sys.MallocPage(8)
	const want = int64(0x0123456789abcdef)
	held0, held1 := make(chan struct{}), make(chan struct{})
	var got int64
	sys.Register("chain3", func(n *Node, _ []byte) {
		_ = n.ReadI64(a) // a copy everywhere, so each grant covers the page
		n.Barrier()
		switch n.ID() {
		case 0:
			n.Acquire(0)
			close(held0)
			waitUntil(n, func() bool { return len(n.lockFor(0).pending) > 0 })
			n.WriteI64(a, want)
			n.Release(0)
		case 1:
			<-held0
			n.Acquire(0)
			n.mu.Lock()
			ivl := n.intervals[0][len(n.intervals[0])-1]
			kept, ok := ivl.diffs[PageID(a/PageSize)]
			n.mu.Unlock()
			if !ok || inFreeList(&sys.pool, kept) {
				t.Errorf("node 1 kept diff %v (held %v) of node 0's interval: want a copy outside the pool's free lists", kept, ok)
			}
			close(held1)
			waitUntil(n, func() bool { return len(n.lockFor(0).pending) > 0 })
			n.Release(0)
		case 2:
			<-held1
			n.Acquire(0)
			got = n.ReadI64(a)
			n.Release(0)
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("chain3", nil) }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("node 2 read %#x under the lock, want node 0's %#x", got, want)
	}
	if got := lockFaultRounds(sys); got != 0 {
		t.Errorf("%d fault rounds under the lock, want 0: a grant did not carry node 0's diff", got)
	}
}
