package dsm

import (
	"math"
	"runtime"
	"testing"
)

// A wire payload is encoded once, in place, into a buffer from the
// System's pool, and its one receiver releases it once decoded: a warm
// synchronization round allocates only what the protocol keeps and what
// the network's message envelopes cost.

// leastPerRound runs one window of rounds after warm ones, three times,
// on every thread of the region, and returns the least TotalAlloc delta a
// round that thread 0 saw: the heap counters are the process's, so the
// least of three windows is taken. Every thread must call it in step.
func leastPerRound(n *Node, per *uint64, warm, rounds int, round func()) {
	for range 3 {
		for range warm {
			round()
		}
		var before, after runtime.MemStats
		if n.ID() == 0 {
			runtime.ReadMemStats(&before)
		}
		for range rounds {
			round()
		}
		if n.ID() == 0 {
			runtime.ReadMemStats(&after)
			*per = min(*per, (after.TotalAlloc-before.TotalAlloc)/uint64(rounds))
		}
	}
}

// TestWarmSyncRoundsAllocateLittle: a warm 8-node barrier and a warm lock
// handoff between two nodes, each writing the lock's word, stay under a
// per-round allocation bound (go1.24; a race-detector build only logs its
// figures). Before payloads came from the pool — every payload and every
// decoded clock allocated, the departure wave a slice per barrier — a
// barrier cost 2,735 bytes and a handoff 1,417; with it they cost 2,112
// and 1,278–1,328. The handoff's rest is mostly what the protocol keeps
// (the interval record, its diff and retained copy) and the network's
// message envelopes.
func TestWarmSyncRoundsAllocateLittle(t *testing.T) {
	const warm, rounds = 20, 200
	t.Run("barrier_p8", func(t *testing.T) {
		const bound = 2400
		sys := New(Config{Procs: 8})
		defer sys.Close()
		per := uint64(math.MaxUint64)
		sys.Register("barriers", func(n *Node, _ []byte) {
			leastPerRound(n, &per, warm, rounds, n.Barrier)
		})
		if err := sys.Run(func(n *Node) { n.RunParallel("barriers", nil) }); err != nil {
			t.Fatal(err)
		}
		t.Logf("a warm p8 barrier allocates %d bytes", per)
		if per > bound && !raceDetector {
			t.Errorf("a warm p8 barrier allocated %d bytes, want <= %d", per, bound)
		}
	})
	t.Run("lock_handoff", func(t *testing.T) {
		const bound = 1390
		sys := New(Config{Procs: 2})
		defer sys.Close()
		a := sys.MallocPage(8)
		turn := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
		turn[0] <- struct{}{}
		per := uint64(math.MaxUint64)
		sys.Register("handoffs", func(n *Node, _ []byte) {
			me := n.ID()
			// Each round is one handoff: the token is always at the other
			// node, and the grant carries the other node's diff.
			leastPerRound(n, &per, warm, rounds, func() {
				<-turn[me]
				n.Acquire(0)
				n.WriteI64(a, n.ReadI64(a)+1)
				n.Release(0)
				turn[1-me] <- struct{}{}
			})
		})
		if err := sys.Run(func(n *Node) {
			n.RunParallel("handoffs", nil)
			if got, want := n.ReadI64(a), int64(2*3*(warm+rounds)); got != want {
				t.Errorf("counter = %d, want %d", got, want)
			}
		}); err != nil {
			t.Fatal(err)
		}
		per /= 2 // both nodes hand off once in each of node 0's rounds
		t.Logf("a warm two-node lock handoff allocates %d bytes", per)
		if per > bound && !raceDetector {
			t.Errorf("a warm two-node lock handoff allocated %d bytes, want <= %d", per, bound)
		}
	})
}
