package dsm

import (
	"fmt"
	"testing"
)

// TestScale128AcquireGCPushes drives the lock/semaphore ring at 128 nodes
// with the acquire collector under pressure: a GC consensus round here
// pushes deltas to up to 127 quiet peers through TrySendAt, so the run
// completing with correct contents (the fixture asserts them) is the
// convergence claim — the drop-and-retry pacing must make progress against
// the scaled queue bound rather than livelocking the consensus floor.
func TestScale128AcquireGCPushes(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node ring is slow under -short")
	}
	sys := acqRingWorkload(t, Config{Procs: 128, GCPressure: 64}, 12)
	st := sys.TotalStats()
	if st.GCAcqEpochs == 0 {
		t.Error("no acquire epochs processed at 128 nodes")
	}
	if st.GCSyncPushes == 0 {
		t.Error("no consensus pushes at 128 nodes: the push path was not exercised")
	}
	if st.IntervalsRetired == 0 {
		t.Error("acquire epochs retired nothing at 128 nodes")
	}
}

// TestScale128TreeConsensusFanout re-drives the 128-node push ring and
// asserts the hierarchical-consensus claims on top of convergence: push
// rounds still announce and retire (the floor converges), and the
// per-round fan-out of a push initiator is bounded by its combining-tree
// degree — O(fan-in) — rather than the machine size. The flat protocol
// sent up to P-1 = 127 msgGCSync datagrams from one node per round; the
// tree transport sends at most fanin+1 = 9 first-hop frames per round
// (summed over ALL initiators, which is strictly stronger than the
// per-node claim) and relays the rest hop by hop. The reverse deltas the
// pushed nodes answer with — one per node a round reaches, so O(P) a round
// by design — are counted apart (GCSyncReverse) and only required to flow.
func TestScale128TreeConsensusFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node ring is slow under -short")
	}
	sys := acqRingWorkload(t, Config{Procs: 128, GCPressure: 64}, 12)
	st := sys.TotalStats()
	if st.GCAcqEpochs == 0 || st.IntervalsRetired == 0 {
		t.Fatalf("consensus did not converge: %d acquire epochs, %d intervals retired",
			st.GCAcqEpochs, st.IntervalsRetired)
	}
	sys.acq.mu.Lock()
	rounds, announced := sys.acq.pushes, sys.acq.announced
	sys.acq.mu.Unlock()
	if announced == 0 {
		t.Error("no acquire epochs announced at 128 nodes: the floor never advanced")
	}
	if rounds == 0 {
		t.Fatal("no push rounds initiated: the push path was not exercised")
	}
	degree := int64(DefaultBarrierFanin + 1) // children of one node, plus its parent
	if st.GCSyncPushes > rounds*degree {
		t.Errorf("%d push frames over %d rounds exceeds the tree-degree bound %d: "+
			"initiators are fanning out O(P), not O(fan-in)",
			st.GCSyncPushes, rounds, rounds*degree)
	}
	if st.GCSyncRelays == 0 {
		t.Error("no relays: pushes are not routing through the combining tree")
	}
	if st.GCSyncReverse == 0 {
		t.Error("no reverse deltas: the two-way exchange of a push went unexercised")
	}
}

// TestTreeVsFlatConsensusEquivalence pins the tree-vs-flat agreement two
// ways at ≤ 9 nodes. First, the routing gate: at the paper's machine
// sizes (procs ≤ fanin+1) the flat direct-send transport must stay in
// effect — that path is what the golden byte-count pins certify, and the
// predicate going true there would silently change their traffic.
// Second, equivalence past the gate: the same workload run flat (default
// fan-in) and tree-routed (fan-in 2 puts 8 nodes on a four-level tree)
// must both converge with correct contents (the fixture asserts every
// page) and retire protocol state — routing is a transport choice, never
// a protocol change.
func TestTreeVsFlatConsensusEquivalence(t *testing.T) {
	flat := acqRingWorkload(t, Config{Procs: 8, GCPressure: 32}, 10)
	if flat.nodes[1].gcTreeConsensus() {
		t.Error("8 nodes at the default fan-in must keep the flat consensus transport")
	}
	if st := flat.TotalStats(); st.GCSyncRelays != 0 {
		t.Errorf("flat transport relayed %d frames", st.GCSyncRelays)
	}
	tree := acqRing(t, newSystem(Config{Procs: 8, GCPressure: 32}, 2), 10)
	if !tree.nodes[1].gcTreeConsensus() {
		t.Fatal("8 nodes at fan-in 2 must tree-route the consensus")
	}
	fs, ts := flat.TotalStats(), tree.TotalStats()
	if fs.IntervalsRetired == 0 || ts.IntervalsRetired == 0 {
		t.Errorf("retirement missing: flat retired %d, tree retired %d",
			fs.IntervalsRetired, ts.IntervalsRetired)
	}
	if fs.GCAcqEpochs == 0 || ts.GCAcqEpochs == 0 {
		t.Errorf("acquire epochs missing: flat %d, tree %d", fs.GCAcqEpochs, ts.GCAcqEpochs)
	}
}

// TestTreeBarrierAcquireEpochs mixes locks with barriers on a two-level
// tree. The lock sections announce consensus floors, and a barrier reached
// while some node still owes one skips its own announcement (the gate is
// closed), so those floors are pending when the departure wave flows; each
// node finishes what it owes at its next synchronization operation or at
// the episode. Every node must read correct neighbor values afterward.
func TestTreeBarrierAcquireEpochs(t *testing.T) {
	const procs, rounds = 16, 24
	sys := New(Config{Procs: procs, GCPressure: 24})
	arr := sys.MallocPage(procs * PageSize)
	ctr := sys.MallocPage(8)
	sys.Register("mix", func(n *Node, _ []byte) {
		me := n.ID()
		for r := 0; r < rounds; r++ {
			n.WriteI64(arr+Addr(me*PageSize), int64(r*1000+me))
			n.Acquire(1)
			n.WriteI64(ctr, n.ReadI64(ctr)+1)
			n.Release(1)
			n.Barrier()
			o := (me + 1) % procs
			if got := n.ReadI64(arr + Addr(o*PageSize)); got != int64(r*1000+o) {
				t.Errorf("node %d round %d read neighbor %d = %d, want %d", me, r, o, got, r*1000+o)
			}
			n.Barrier()
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("mix", nil) }); err != nil {
		t.Fatal(err)
	}
	st := sys.TotalStats()
	if got := int64(rounds * procs); st.LockAcquires < got {
		t.Errorf("lock traffic missing: %d acquires, want ≥ %d", st.LockAcquires, got)
	}
	if st.GCAcqEpochs == 0 {
		t.Error("no acquire epochs: the scenario needs announced floors")
	}
}

// TestScaleTreeBarrierCorrectness runs a neighbor-exchange kernel across
// node counts that force every tree shape the combining barrier can take —
// flat (≤ fan-in+1), two levels, three levels at 128 — and with a narrow
// fan-in that forces depth at small node counts. Every node writes its own
// page each round and reads both ring neighbors after the barrier, so a
// departure wave that misses an arrival's delta shows up as a stale read.
func TestScaleTreeBarrierCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("large-team barrier sweep is slow under -short")
	}
	for _, tt := range []struct{ procs, fanin int }{
		{16, 0},  // two levels at the default fan-in
		{16, 2},  // binary tree, four levels
		{32, 0},  // two levels, uneven leaf row
		{64, 0},  // two full levels
		{128, 0}, // three levels
	} {
		tt := tt
		t.Run(fmt.Sprintf("p%d_f%d", tt.procs, tt.fanin), func(t *testing.T) {
			t.Parallel()
			const rounds = 4
			// Collect at every episode: the purge waves ride the tree too.
			fanin := tt.fanin
			if fanin == 0 {
				fanin = DefaultBarrierFanin
			}
			sys := newSystem(Config{Procs: tt.procs, GCPressure: 1}, fanin)
			arr := sys.MallocPage(tt.procs * PageSize)
			sys.Register("ring", func(n *Node, _ []byte) {
				me := n.ID()
				for r := 0; r < rounds; r++ {
					n.WriteI64(arr+Addr(me*PageSize), int64(r*1000+me))
					n.Barrier()
					for _, o := range []int{(me + 1) % tt.procs, (me + tt.procs - 1) % tt.procs} {
						if got := n.ReadI64(arr + Addr(o*PageSize)); got != int64(r*1000+o) {
							t.Errorf("node %d round %d read neighbor %d = %d, want %d",
								me, r, o, got, r*1000+o)
						}
					}
					n.Barrier()
				}
			})
			if err := sys.Run(func(n *Node) { n.RunParallel("ring", nil) }); err != nil {
				t.Fatal(err)
			}
			if got := sys.Node(0).Stats().Barriers; got != 2*rounds {
				t.Errorf("node 0 ran %d barriers, want %d", got, 2*rounds)
			}
		})
	}
}

// TestTrafficBreakdownSums checks the cost-attribution split of the run
// report: a lock/semaphore workload with the acquire collector on must
// show traffic in every category. (The pairs sum to the totals by
// construction, Sync being the residue; core's TestReportTrafficSums
// holds that on the NOW and hybrid backends.)
func TestTrafficBreakdownSums(t *testing.T) {
	sys := acqRingWorkload(t, Config{Procs: 4, GCPressure: 16}, 48)
	b := sys.Report()
	if b.PageMsgs == 0 || b.SyncMsgs == 0 || b.GCMsgs == 0 {
		t.Errorf("expected traffic in every category, got %+v", b)
	}
	if b.PageBytes == 0 || b.SyncBytes == 0 || b.GCBytes == 0 {
		t.Errorf("expected bytes in every category, got %+v", b)
	}
}

// TestBarrierTreeShape pins the combining-tree arithmetic: the heap
// parent/child relations, the degenerate flat shape at fan-in ≥ procs-1,
// and the arrival-buffer sizing that must hold up at 128 nodes (satellite
// of the >8-node scaling work: the old flat manager buffered 4*procs
// arrivals; the tree buffers per-child).
func TestBarrierTreeShape(t *testing.T) {
	if got := barrierChildren(0, 9, 8); len(got) != 8 {
		t.Errorf("root of a 9-proc fan-in-8 tree has %d children, want 8 (flat degenerate)", len(got))
	}
	for i := 1; i < 9; i++ {
		if k := barrierChildren(i, 9, 8); len(k) != 0 {
			t.Errorf("node %d of the flat degenerate tree has children %v", i, k)
		}
		if p := barrierParent(i, 8); p != 0 {
			t.Errorf("node %d of the flat degenerate tree has parent %d", i, p)
		}
	}
	// 128 nodes at fan-in 8: root feeds 1..8, node 1 feeds 9..16, the last
	// interior node is 15 (children 121..127).
	if got := barrierChildren(1, 128, 8); len(got) != 8 || got[0] != 9 || got[7] != 16 {
		t.Errorf("node 1 children = %v", got)
	}
	if got := barrierChildren(15, 128, 8); len(got) != 7 || got[0] != 121 || got[6] != 127 {
		t.Errorf("node 15 children = %v", got)
	}
	if got := barrierChildren(16, 128, 8); len(got) != 0 {
		t.Errorf("node 16 should be a leaf, has children %v", got)
	}
	if p := barrierParent(127, 8); p != 15 {
		t.Errorf("parent of node 127 = %d, want 15", p)
	}
	// Every node except the root appears in exactly one child list.
	seen := make(map[int]int)
	for i := 0; i < 128; i++ {
		for _, c := range barrierChildren(i, 128, 8) {
			seen[c]++
		}
	}
	if len(seen) != 127 {
		t.Fatalf("child lists cover %d nodes, want 127", len(seen))
	}
	for c, k := range seen {
		if k != 1 {
			t.Errorf("node %d appears in %d child lists", c, k)
		}
		if barrierParent(c, 8)*8+1 > c || c > barrierParent(c, 8)*8+8 {
			t.Errorf("node %d disagrees with its parent %d", c, barrierParent(c, 8))
		}
	}
}
