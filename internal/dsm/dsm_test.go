package dsm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// runSystem builds a system, registers the given regions, runs master,
// and fails the test on any node panic.
func runSystem(t *testing.T, procs int, regions map[string]RegionFunc, master func(n *Node)) *System {
	t.Helper()
	sys := New(Config{Procs: procs})
	for name, fn := range regions {
		sys.Register(name, fn)
	}
	if err := sys.Run(master); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return sys
}

func TestMallocAlignmentAndGrowth(t *testing.T) {
	sys := New(Config{Procs: 1})
	a := sys.Malloc(3)
	b := sys.Malloc(8)
	if a%8 != 0 || b%8 != 0 {
		t.Fatalf("allocations not 8-byte aligned: %d, %d", a, b)
	}
	if b != a+8 {
		t.Fatalf("expected 3-byte block rounded to 8: a=%d b=%d", a, b)
	}
	c := sys.MallocPage(16)
	if int(c)%PageSize != 0 {
		t.Fatalf("MallocPage not page aligned: %d", c)
	}
	_ = sys.Run(func(n *Node) {})
}

func TestSingleNodeReadWrite(t *testing.T) {
	sys := New(Config{Procs: 1})
	a := sys.Malloc(4096 * 3)
	err := sys.Run(func(n *Node) {
		n.WriteF64(a, 3.5)
		n.WriteI64(a+8, -42)
		n.WriteI32(a+16, 7)
		if got := n.ReadF64(a); got != 3.5 {
			t.Errorf("ReadF64 = %v, want 3.5", got)
		}
		if got := n.ReadI64(a + 8); got != -42 {
			t.Errorf("ReadI64 = %v, want -42", got)
		}
		if got := n.ReadI32(a + 16); got != 7 {
			t.Errorf("ReadI32 = %v, want 7", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrossPageSpanningAccess(t *testing.T) {
	sys := New(Config{Procs: 1})
	base := sys.MallocPage(2 * PageSize)
	a := base + Addr(PageSize-4) // straddles the page boundary
	err := sys.Run(func(n *Node) {
		n.WriteF64(a, 1.25)
		if got := n.ReadF64(a); got != 1.25 {
			t.Errorf("straddling ReadF64 = %v, want 1.25", got)
		}
		src := make([]byte, 3*PageSize/2)
		for i := range src {
			src[i] = byte(i * 7)
		}
		n.WriteBytes(base, src)
		dst := make([]byte, len(src))
		n.ReadBytes(base, dst)
		for i := range src {
			if src[i] != dst[i] {
				t.Fatalf("byte %d: got %d want %d", i, dst[i], src[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForkJoinVisibility(t *testing.T) {
	sys := New(Config{Procs: 4})
	a := sys.MallocPage(8 * 4)
	sys.Register("write-id", func(n *Node, arg []byte) {
		n.WriteI64(a+Addr(8*n.ID()), int64(100+n.ID()))
	})
	err := sys.Run(func(n *Node) {
		// Master initializes before the fork; slaves must see it.
		n.WriteI64(a, -1)
		n.RunParallel("write-id", nil)
		// After join the master must see every slave's write.
		for i := 0; i < 4; i++ {
			if got := n.ReadI64(a + Addr(8*i)); got != int64(100+i) {
				t.Errorf("slot %d = %d, want %d", i, got, 100+i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJoinTails: a RegisterTail region's results come back from
// RunParallel in node order — the master's own, then each slave's off its
// join — with nothing where a node returned nothing; and a region that
// returns nothing puts exactly a plain region's bytes on the wire.
func TestJoinTails(t *testing.T) {
	const procs = 4
	traffic := func(tailed bool) (int64, int64) {
		sys := New(Config{Procs: procs})
		defer sys.Close()
		a := sys.MallocPage(8 * procs)
		sys.Register("plain", func(n *Node, _ []byte) { n.WriteI64(a+Addr(8*n.ID()), 1) })
		sys.RegisterTail("tailed", func(c *Client, _ []byte) []byte {
			c.WriteI64(a+Addr(8*c.ID()), 1)
			if c.ID() == 2 {
				return nil
			}
			return []byte{byte(c.ID()), 0xee}
		})
		sys.RegisterTail("quiet", func(c *Client, _ []byte) []byte {
			c.WriteI64(a+Addr(8*c.ID()), 1)
			return nil
		})
		err := sys.Run(func(n *Node) {
			if !tailed {
				n.RunParallel("plain", nil)
				return
			}
			n.RunParallel("quiet", nil)
			got := n.RunParallel("tailed", nil)
			want := [][]byte{{0, 0xee}, {1, 0xee}, nil, {3, 0xee}}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("RunParallel returned tails %v, want %v", got, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys.Switch().Stats().ByType(msgJoin)
	}
	plainMsgs, plainBytes := traffic(false)
	msgs, bytes := traffic(true)
	if want := 2 * plainMsgs; msgs != want {
		t.Errorf("two regions sent %d joins, want %d", msgs, want)
	}
	// The quiet region's joins are the plain region's to the byte; the
	// tailed one's carry two bytes more from each of the two slaves with a tail.
	if want := 2*plainBytes + 2*2; bytes != want {
		t.Errorf("joins moved %d B, want %d", bytes, want)
	}
}

func TestMasterWritesVisibleToSlaves(t *testing.T) {
	sys := New(Config{Procs: 3})
	a := sys.MallocPage(8)
	got := make([]int64, 3)
	sys.Register("read-shared", func(n *Node, arg []byte) {
		got[n.ID()] = n.ReadI64(a)
	})
	err := sys.Run(func(n *Node) {
		n.WriteI64(a, 777)
		n.RunParallel("read-shared", nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 777 {
			t.Errorf("node %d read %d, want 777", i, v)
		}
	}
}

func TestBarrierMakesWritesVisible(t *testing.T) {
	const P = 4
	sys := New(Config{Procs: P})
	a := sys.MallocPage(8 * P)
	sums := make([]int64, P)
	sys.Register("phase", func(n *Node, arg []byte) {
		n.WriteI64(a+Addr(8*n.ID()), int64(n.ID()+1))
		n.Barrier()
		var s int64
		for i := 0; i < P; i++ {
			s += n.ReadI64(a + Addr(8*i))
		}
		sums[n.ID()] = s
	})
	err := sys.Run(func(n *Node) { n.RunParallel("phase", nil) })
	if err != nil {
		t.Fatal(err)
	}
	want := int64(P * (P + 1) / 2)
	for i, s := range sums {
		if s != want {
			t.Errorf("node %d sum = %d, want %d", i, s, want)
		}
	}
}

func TestLockProtectedCounter(t *testing.T) {
	const P = 8
	const iters = 25
	sys := New(Config{Procs: P})
	a := sys.MallocPage(8)
	sys.Register("inc", func(n *Node, arg []byte) {
		for i := 0; i < iters; i++ {
			n.Acquire(1)
			n.WriteI64(a, n.ReadI64(a)+1)
			n.Release(1)
		}
	})
	err := sys.Run(func(n *Node) {
		n.RunParallel("inc", nil)
		if got := n.ReadI64(a); got != P*iters {
			t.Errorf("counter = %d, want %d", got, P*iters)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultipleWriterFalseSharing(t *testing.T) {
	// All nodes write disjoint words of the SAME page concurrently; the
	// multiple-writer protocol must merge all modifications at the
	// barrier (diff of each writer against its twin).
	const P = 8
	const words = 64
	sys := New(Config{Procs: P})
	a := sys.MallocPage(8 * words) // one page, 8 writers
	sys.Register("scatter", func(n *Node, arg []byte) {
		for w := n.ID(); w < words; w += P {
			n.WriteI64(a+Addr(8*w), int64(1000*n.ID()+w))
		}
		n.Barrier()
		for w := 0; w < words; w++ {
			want := int64(1000*(w%P) + w)
			if got := n.ReadI64(a + Addr(8*w)); got != want {
				t.Errorf("node %d: word %d = %d, want %d", n.ID(), w, got, want)
			}
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("scatter", nil) }); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacentInt32FalseSharing(t *testing.T) {
	// Regression: two nodes concurrently write ADJACENT int32 values that
	// share an 8-byte machine word. The multiple-writer merge must keep
	// both writes, which requires diffing at 4-byte granularity (coarser
	// diff words capture the neighbour's stale half and lose one write).
	const P = 2
	const pairs = 64
	sys := New(Config{Procs: P})
	a := sys.MallocPage(8 * pairs)
	sys.Register("adjacent", func(n *Node, arg []byte) {
		for k := 0; k < pairs; k++ {
			// Node 0 writes the even halves, node 1 the odd halves of
			// each 8-byte word.
			idx := 2*k + n.ID()
			n.WriteI32(a+Addr(4*idx), int32(1000+idx))
		}
		n.Barrier()
		for idx := 0; idx < 2*pairs; idx++ {
			if got := n.ReadI32(a + Addr(4*idx)); got != int32(1000+idx) {
				t.Errorf("node %d: slot %d = %d, want %d (lost write in word-granularity merge)",
					n.ID(), idx, got, 1000+idx)
			}
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("adjacent", nil) }); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedParallelRegions(t *testing.T) {
	const P = 4
	const rounds = 10
	sys := New(Config{Procs: P})
	a := sys.MallocPage(8 * P)
	sys.Register("accum", func(n *Node, arg []byte) {
		cur := n.ReadI64(a + Addr(8*n.ID()))
		n.WriteI64(a+Addr(8*n.ID()), cur+1)
	})
	err := sys.Run(func(n *Node) {
		for r := 0; r < rounds; r++ {
			n.RunParallel("accum", nil)
		}
		for i := 0; i < P; i++ {
			if got := n.ReadI64(a + Addr(8*i)); got != rounds {
				t.Errorf("slot %d = %d, want %d", i, got, rounds)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSemaphorePipeline(t *testing.T) {
	// Producer/consumer pipeline from Figure 3 of the paper: semaphores
	// carry both synchronization and consistency.
	const rounds = 20
	sys := New(Config{Procs: 2})
	data := sys.MallocPage(8)
	const semAvail, semDone = 10, 11
	results := make([]int64, 0, rounds)
	sys.Register("pipe", func(n *Node, arg []byte) {
		if n.ID() == 0 { // producer
			for i := 0; i < rounds; i++ {
				n.WriteI64(data, int64(i*i))
				n.SemaSignal(semAvail)
				n.SemaWait(semDone)
			}
		} else { // consumer
			for i := 0; i < rounds; i++ {
				n.SemaWait(semAvail)
				results = append(results, n.ReadI64(data))
				n.SemaSignal(semDone)
			}
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("pipe", nil) }); err != nil {
		t.Fatal(err)
	}
	if len(results) != rounds {
		t.Fatalf("consumer got %d values, want %d", len(results), rounds)
	}
	for i, v := range results {
		if v != int64(i*i) {
			t.Errorf("round %d: consumer read %d, want %d", i, v, i*i)
		}
	}
}

func TestSemaphoreBankedSignals(t *testing.T) {
	// Signals issued before any wait must be banked (classic V-before-P).
	sys := New(Config{Procs: 2})
	a := sys.MallocPage(8)
	sys.Register("bank", func(n *Node, arg []byte) {
		if n.ID() == 0 {
			n.WriteI64(a, 5)
			n.SemaSignal(3)
			n.SemaSignal(3)
		} else {
			n.SemaWait(3)
			n.SemaWait(3)
			if got := n.ReadI64(a); got != 5 {
				t.Errorf("consumer read %d, want 5", got)
			}
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("bank", nil) }); err != nil {
		t.Fatal(err)
	}
}

func TestConditionVariableTaskQueue(t *testing.T) {
	// The paper's Figure 4 task queue: a critical section protects the
	// queue; waiters block on a condition variable; termination uses a
	// broadcast when every thread is waiting.
	const P = 4
	const tasks = 40
	const lockID, condID = 0, 0
	sys := New(Config{Procs: P})
	// Shared: head index, tail index, nwait, queue of task values, results.
	qHead := sys.MallocPage(8)
	qTail := sys.Malloc(8)
	nwait := sys.Malloc(8)
	queue := sys.MallocPage(8 * (tasks + 8))
	done := sys.MallocPage(8 * tasks)

	sys.Register("worker", func(n *Node, arg []byte) {
		for {
			var task int64 = -1
			n.Acquire(lockID)
			for {
				h, t := n.ReadI64(qHead), n.ReadI64(qTail)
				if h < t {
					task = n.ReadI64(queue + Addr(8*(h%(tasks+8))))
					n.WriteI64(qHead, h+1)
					break
				}
				nw := n.ReadI64(nwait) + 1
				n.WriteI64(nwait, nw)
				if nw == P {
					n.CondBroadcast(condID, lockID)
					break
				}
				n.CondWait(condID, lockID)
				if n.ReadI64(nwait) == P {
					break
				}
				n.WriteI64(nwait, n.ReadI64(nwait)-1)
			}
			n.Release(lockID)
			if task < 0 {
				return
			}
			// "Process" the task, then mark it done.
			n.WriteI64(done+Addr(8*task), task*task)
		}
	})
	err := sys.Run(func(n *Node) {
		for i := 0; i < tasks; i++ {
			n.WriteI64(queue+Addr(8*i), int64(i))
		}
		n.WriteI64(qTail, tasks)
		n.RunParallel("worker", nil)
		for i := 0; i < tasks; i++ {
			if got := n.ReadI64(done + Addr(8*i)); got != int64(i*i) {
				t.Errorf("task %d result = %d, want %d", i, got, i*i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushVisibility(t *testing.T) {
	// Figure 1 pipeline with flush and busy-waiting: the flush pushes
	// write notices to all nodes, so a spinning reader eventually faults
	// and observes the new value.
	sys := New(Config{Procs: 3})
	avail := sys.MallocPage(8)
	data := sys.MallocPage(8)
	sys.Register("flushpipe", func(n *Node, arg []byte) {
		switch n.ID() {
		case 0:
			n.WriteI64(data, 12345)
			n.WriteI64(avail, 1)
			n.Flush()
		case 1:
			for n.ReadI64(avail) == 0 {
				n.Poll()
			}
			if got := n.ReadI64(data); got != 12345 {
				t.Errorf("reader saw %d, want 12345", got)
			}
		default:
			// Uninvolved node: flush disturbs it anyway (interrupt).
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("flushpipe", nil) }); err != nil {
		t.Fatal(err)
	}
	st := sys.Node(2).Stats()
	if st.Interrupts == 0 {
		t.Errorf("uninvolved node was not interrupted by flush (got %d interrupts)", st.Interrupts)
	}
}

func TestFlushMessageCost(t *testing.T) {
	// Section 3.2.3: one flush costs 2(n-1) messages (notices + acks).
	for _, procs := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			sys := New(Config{Procs: procs})
			a := sys.MallocPage(8)
			sys.Register("noop", func(n *Node, arg []byte) {})
			err := sys.Run(func(n *Node) {
				n.RunParallel("noop", nil) // wake everyone once
				n.WriteI64(a, 1)
				sys.Switch().ResetStats()
				n.Flush()
				msgs, _ := sys.Switch().Stats().Snapshot()
				if want := int64(2 * (procs - 1)); msgs != want {
					t.Errorf("flush cost %d messages, want %d", msgs, want)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLockChainThroughManager(t *testing.T) {
	// Exercise manager forwarding: the lock's manager is node 1 (id%P),
	// and acquirers bounce between nodes so grants flow holder→requester.
	const P = 4
	const lockID = 1 // manager = node 1
	sys := New(Config{Procs: P})
	a := sys.MallocPage(8)
	sys.Register("chain", func(n *Node, arg []byte) {
		for i := 0; i < 10; i++ {
			n.Acquire(lockID)
			n.WriteI64(a, n.ReadI64(a)+int64(n.ID()+1))
			n.Release(lockID)
		}
	})
	err := sys.Run(func(n *Node) {
		n.RunParallel("chain", nil)
		want := int64(10 * (1 + 2 + 3 + 4))
		if got := n.ReadI64(a); got != want {
			t.Errorf("sum = %d, want %d", got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	sys := New(Config{Procs: 2})
	sys.Register("work", func(n *Node, arg []byte) {
		n.Compute(1e6) // 1e6 flops = 10 ms at 10 ns/flop
		n.Barrier()
	})
	err := sys.Run(func(n *Node) {
		n.RunParallel("work", nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.MaxClock(); got < 10_000_000 {
		t.Errorf("virtual time %v, want >= 10ms", got)
	}
}

func TestRunPropagatesPanics(t *testing.T) {
	sys := New(Config{Procs: 2})
	sys.Register("boom", func(n *Node, arg []byte) {
		if n.ID() == 1 {
			panic("deliberate failure")
		}
		n.Barrier() // would hang without abort propagation
	})
	err := sys.Run(func(n *Node) { n.RunParallel("boom", nil) })
	if err == nil {
		t.Fatal("expected error from panicking region")
	}
}

func TestStatsAccounting(t *testing.T) {
	const P = 2
	sys := New(Config{Procs: P})
	a := sys.MallocPage(8)
	sys.Register("touch", func(n *Node, arg []byte) {
		if n.ID() == 1 {
			_ = n.ReadI64(a) // must fetch the page from its home
		}
		n.Barrier()
	})
	err := sys.Run(func(n *Node) {
		n.WriteI64(a, 9)
		n.RunParallel("touch", nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Node(1).Stats()
	if st.PageFetches == 0 {
		t.Error("expected node 1 to fetch a page")
	}
	if st.ReadFaults == 0 {
		t.Error("expected node 1 to take a read fault")
	}
	tot := sys.TotalStats()
	if tot.Barriers != P {
		t.Errorf("total barriers = %d, want %d", tot.Barriers, P)
	}
}

// TestTotalStatsCoversEveryCounter sets every NodeStats counter on every
// node to a distinct value and checks that TotalStats sums each one and
// takes the per-node maximum of the Peak* fields. Every leaf field must be
// of int64 kind: that is the kind TotalStats folds, so a counter of any
// other kind would silently drop out of the total.
func TestTotalStatsCoversEveryCounter(t *testing.T) {
	const procs = 3
	sys := New(Config{Procs: procs})
	defer sys.Close()
	var leaves []reflect.StructField
	peaks := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(NodeStats{})) {
		if f.Anonymous {
			continue // Ledger: its fields are visible on their own
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("NodeStats.%s is a %s, not an int64-kind counter", f.Name, f.Type)
		}
		if strings.HasPrefix(f.Name, "Peak") {
			peaks++
		}
		leaves = append(leaves, f)
	}
	if ledger := reflect.TypeOf(Ledger{}).NumField(); peaks != 2 || len(leaves) < 14+ledger {
		t.Fatalf("found %d counters, %d of them peaks: the ledger's %d fields or the peaks are missing", len(leaves), peaks, ledger)
	}
	// Distinct on every node and field; which node holds a field's maximum
	// rotates with the field, so neither the first nor the last node wins.
	val := func(node, k int) int64 { return int64(k+1)*1000 + int64((node+k)%procs+1)*10 + int64(node) }
	for i, n := range sys.nodes {
		n.mu.Lock()
		v := reflect.ValueOf(&n.stats).Elem()
		for k, f := range leaves {
			v.FieldByIndex(f.Index).SetInt(val(i, k))
		}
		n.mu.Unlock()
	}
	got := reflect.ValueOf(sys.TotalStats())
	for k, f := range leaves {
		var want int64
		for i := 0; i < procs; i++ {
			if strings.HasPrefix(f.Name, "Peak") {
				want = max(want, val(i, k))
			} else {
				want += val(i, k)
			}
		}
		if g := got.FieldByIndex(f.Index).Int(); g != want {
			t.Errorf("TotalStats().%s = %d, want %d", f.Name, g, want)
		}
	}
}
