package dsm

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// A creator's diffs of one page that sit next to each other in causal order
// travel in one fetch exchange as one item, answered by one merged diff
// (mergeDiffs, fetchLocked, handleFetchReq). These tests hold the merge to
// applying the diffs one after another, and pin what a fault round, a fault
// under a lock and a validation wave send.

// diffWords returns the words the given diffs write, together.
func diffWords(diffs ...[]byte) (wrote [PageSize / 4]bool) {
	page := make([]byte, PageSize)
	for _, d := range diffs {
		applyRuns(page, d, wrote[:])
	}
	return wrote
}

// TestMergeDiffsProperty: on random pages, a writer's run of k diffs
// (some empty, later ones rewriting earlier ones' words) merged into one
// gives the page applying them in order gives, on a requester copy whose
// other words hold a second writer's values — that writer's words border
// the first's, int32 by int32, as QSORT's subarrays do. The merged diff is
// no longer than the diffs together nor than PageSize+3, writes exactly the
// words they write, and a merge of one diff is that diff.
func TestMergeDiffsProperty(t *testing.T) {
	var dst []byte
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, PageSize)
		rng.Read(base)
		// The writer owns the words below the boundary, the neighbour the rest.
		b := 1 + rng.Intn(PageSize/4-1)
		mutate := func(page []byte, lo, hi, k int) []byte {
			out := bytes.Clone(page)
			for ; k > 0; k-- {
				w := lo + rng.Intn(hi-lo)
				if rng.Intn(2) == 0 {
					w = max(lo, min(hi-1, b-1+rng.Intn(2))) // at the boundary
				}
				out[4*w+rng.Intn(4)] ^= byte(1 + rng.Intn(255))
			}
			return out
		}
		req := mutate(base, b, PageSize/4, 1+rng.Intn(8))
		k := 1 + rng.Intn(5)
		diffs := make([][]byte, k)
		prev, total := base, 0
		for i := range diffs {
			next := mutate(prev, 0, b, []int{0, 1, rng.Intn(16), rng.Intn(b + 1)}[rng.Intn(4)])
			diffs[i], _ = makeDiff(next, prev, nil)
			prev, total = next, total+len(diffs[i])
		}
		want := bytes.Clone(req)
		for _, d := range diffs {
			applyDiff(want, d)
		}
		dst = mergeDiffs(dst[:0], diffs)
		got := bytes.Clone(req)
		applyDiff(got, dst)
		switch {
		case !bytes.Equal(got, want):
			t.Logf("seed %d, %d diffs: merged diff applies to a different page", seed, k)
		case len(dst) > total || len(dst) > maxDiff:
			t.Logf("seed %d, %d diffs: merged %d B, diffs %d B, bound %d", seed, k, len(dst), total, maxDiff)
		case diffWords(dst) != diffWords(diffs...):
			t.Logf("seed %d, %d diffs: merged runs cover other words than the diffs write", seed, k)
		case !bytes.Equal(mergeDiffs(nil, diffs[:1]), diffs[0]):
			t.Logf("seed %d: a merge of one diff is not that diff", seed)
		default:
			return true
		}
		return false
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// mergeFixture runs three nodes, collector off, on one page homed at node
// 0 that every node holds: node 1 writes it in three intervals, outside any
// lock (each closed by its own lock 1), node 2 then learns the three notices
// on lock 1's grant, which carries no data, and reads the page. underLock
// makes node 2 read holding lock 0, which node 0 then acquires. It returns
// what node 2 read and the fetch traffic of its read, and the seqs of the
// three intervals.
func mergeFixture(t *testing.T, underLock bool) (sys *System, got [3]int32, reqBytes, repBytes int64, seqs []int) {
	t.Helper()
	sys = New(Config{Procs: 3, DisableGC: true})
	a := sys.MallocPage(PageSize)
	wrote, held := make(chan struct{}), make(chan struct{})
	var finished sync.WaitGroup
	finished.Add(3)
	fetchBytes := func(typ int) int64 { _, b := sys.Switch().Stats().ByType(typ); return b }
	read := func(n *Node) {
		n.mu.Lock()
		for _, m := range n.pageFor(0).missing {
			seqs = append(seqs, m.seq)
		}
		n.mu.Unlock()
		slices.Sort(seqs)
		req, rep := fetchBytes(msgFetchReq), fetchBytes(msgFetchRep)
		got = [3]int32{n.ReadI32(a), n.ReadI32(a + 8), n.ReadI32(a + 16)}
		reqBytes, repBytes = fetchBytes(msgFetchReq)-req, fetchBytes(msgFetchRep)-rep
	}
	sys.Register("merge", func(n *Node, _ []byte) {
		_ = n.ReadI32(a)
		n.Barrier()
		switch n.ID() {
		case 1:
			for _, w := range []func(){
				func() { n.WriteI32(a, 1); n.WriteI32(a+8, 1) },
				func() { n.WriteI32(a, 2) },
				func() { n.WriteI32(a+16, 3) },
			} {
				w()
				n.Acquire(1)
				n.Release(1)
			}
			close(wrote)
		case 2:
			<-wrote
			n.Acquire(1)
			n.Release(1)
			if !underLock {
				read(n)
				break
			}
			n.Acquire(0)
			close(held)
			waitUntil(n, func() bool { return len(n.lockFor(0).pending) > 0 })
			read(n)
			n.Release(0) // the grant to node 0 forwards the three diffs
		case 0:
			if underLock {
				<-held
				n.Acquire(0)
				if v := [3]int32{n.ReadI32(a), n.ReadI32(a + 8), n.ReadI32(a + 16)}; v != [3]int32{2, 1, 3} {
					t.Errorf("node 0 read %v under the lock, want [2 1 3]", v)
				}
				n.Release(0)
			}
		}
		chainDone(n, &finished)
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("merge", nil) }); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("test premise: node 2 owed %d notices on the page, want node 1's three", len(seqs))
	}
	return sys, got, reqBytes, repBytes, seqs
}

// TestMergeFaultFetchesOneItem: a fault on a page owing three diffs of one
// writer asks for them as one item and applies one merged diff — the three
// one-word runs the writer's intervals left — with each diff counted
// applied. Held under a lock, the same fault asks for three items, merges
// nothing and keeps the three diffs, so the grant of the lock forwards them
// and the grantee reads the page without a fault round.
func TestMergeFaultFetchesOneItem(t *testing.T) {
	header := int64(sim.DefaultPlatform().UDP.HeaderBytes)
	final := make([]byte, PageSize)
	for w, v := range map[int]byte{0: 2, 2: 1, 4: 3} {
		final[4*w] = v
	}
	merged, _ := makeDiff(final, make([]byte, PageSize), nil)
	for _, underLock := range []bool{false, true} {
		sys, got, reqBytes, repBytes, seqs := mergeFixture(t, underLock)
		if got != [3]int32{2, 1, 3} {
			t.Errorf("underLock=%v: node 2 read %v, want [2 1 3]", underLock, got)
		}
		items := []fetchItem{{pid: 0, seq: seqs[0], later: seqs[1:], data: merged}}
		wantMerged := int64(2)
		if underLock {
			items, wantMerged = nil, 0
			for _, s := range seqs {
				items = append(items, fetchItem{pid: 0, seq: s, data: make([]byte, runBytes(0, 4))})
			}
			items[0].data = make([]byte, runBytes(0, 4)+runBytes(4, 4)) // interval 1 wrote two words
		}
		req, rep := fetchItemsWireLen(items...)
		if reqBytes != header+int64(req) || repBytes != header+int64(rep) {
			t.Errorf("underLock=%v: the read's request and reply were %d and %d B, want %d and %d (%d items)",
				underLock, reqBytes, repBytes, header+int64(req), header+int64(rep), len(items))
		}
		n1, n2 := sys.Node(1).Stats(), sys.Node(2).Stats()
		if n1.DiffsMerged != wantMerged || n2.DiffsApplied != 3 || n2.FaultRounds != 1 {
			t.Errorf("underLock=%v: writer merged %d diffs, reader applied %d in %d rounds; want %d, 3, 1",
				underLock, n1.DiffsMerged, n2.DiffsApplied, n2.FaultRounds, wantMerged)
		}
		if r := sys.Report(); r.DiffsMerged != wantMerged {
			t.Errorf("underLock=%v: Report.DiffsMerged = %d, want %d", underLock, r.DiffsMerged, wantMerged)
		}
		if n0 := sys.Node(0).Stats(); underLock && (n0.FaultRounds != 0 || n0.DiffsApplied != 3) {
			t.Errorf("grantee took %d fault rounds and applied %d diffs, want 0 and the grant's 3", n0.FaultRounds, n0.DiffsApplied)
		}
	}
}

// TestMergeGCWaveOneItem: a validation wave owing two diffs of one creator
// on a page asks for them as one item and validates the page once. Node 0
// homes the page, node 1 rewrites a word of it in two intervals, and node
// 0 runs its purge pass to a floor covering both.
func TestMergeGCWaveOneItem(t *testing.T) {
	sys := New(Config{Procs: 2, DisableGC: true})
	a := sys.MallocPage(PageSize)
	var got [2]int32
	var before, after NodeStats
	var reqs int64
	fetchReqs := func() int64 { m, _ := sys.Switch().Stats().ByType(msgFetchReq); return m }
	sys.Register("wave", func(n *Node, _ []byte) {
		if n.ID() == 1 {
			n.WriteI32(a, 1)
			n.WriteI32(a+8, 1)
			n.Acquire(1)
			n.Release(1)
			n.WriteI32(a, 2)
		}
		n.Barrier()
		if n.ID() == 0 {
			before, reqs = n.Stats(), fetchReqs()
			n.mu.Lock()
			if owed := len(n.pageFor(0).missing); owed != 2 {
				t.Errorf("test premise: the home owes %d notices on the page, want 2", owed)
			}
			n.gcPurgePagesLocked(&n.thread, n.vc.clone())
			n.mu.Unlock()
			after, reqs = n.Stats(), fetchReqs()-reqs
			got = [2]int32{n.ReadI32(a), n.ReadI32(a + 8)}
		}
		n.Barrier()
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("wave", nil) }); err != nil {
		t.Fatal(err)
	}
	if got != [2]int32{2, 1} {
		t.Errorf("validated page reads %v, want [2 1]", got)
	}
	if v, f := after.GCPagesValidated-before.GCPagesValidated, after.FaultRounds-before.FaultRounds; v != 1 || f != 0 || reqs != 1 {
		t.Errorf("the wave validated %d pages in %d requests, then %d fault rounds; want 1, 1, 0", v, reqs, f)
	}
	if m := sys.Node(1).Stats().DiffsMerged; m != 1 || after.DiffsApplied-before.DiffsApplied != 2 {
		t.Errorf("the writer merged %d diffs and the home applied %d; want 1 and 2", m, after.DiffsApplied-before.DiffsApplied)
	}
}

// BenchmarkMergeDiffs folds a writer's three diffs of one page — on the
// sparse page one word every 256 bytes, on the dense one every other word,
// the third diff rewriting the first's words — into one. The scratch and the
// output buffer are reused, so a merge allocates nothing.
func BenchmarkMergeDiffs(b *testing.B) {
	base := make([]byte, PageSize)
	rand.New(rand.NewSource(1)).Read(base)
	for _, c := range []struct {
		name   string
		stride int // bytes between changed words
	}{{"sparse", 256}, {"dense", 8}} {
		diffs := make([][]byte, 3)
		prev := base
		for k := range diffs {
			next := bytes.Clone(prev)
			for i := 4 * (k % 2); i < PageSize; i += c.stride {
				next[i] ^= byte(0x11 * (k + 1))
			}
			diffs[k], _ = makeDiff(next, prev, nil)
			prev = next
		}
		b.Run(c.name, func(b *testing.B) {
			merged := make([]byte, 0, maxDiff)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				merged = mergeDiffs(merged[:0], diffs)
			}
			b.ReportMetric(float64(len(merged)), "B/diff")
		})
	}
}
