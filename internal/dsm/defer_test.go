package dsm

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// deferRun is one run of deferProgram: node 0's view of the page it
// rewrote, the copies it held at the end of each of its intervals, and the
// virtual time each write of the page took.
type deferRun struct {
	sys   *System
	n0    *Node
	pid   PageID
	base  []byte   // node 0's copy before its first write
	snaps [][]byte // node 0's copy at the end of interval k
	took  []sim.Time
}

// deferProgram runs two nodes over one page homed at node 0. Node 0 writes
// one word of it in each of rounds intervals, a barrier closing each, so
// each write after the first is a rewrite of a page whose earlier diffs
// the modelled node still owes; at the end it owes all rounds of them.
// Node 1 stays off the page unless touch is set, in which case it writes
// another word of it in the last interval, and node 0 incorporates that
// write notice over its unpaid diffs at the closing barrier.
func deferProgram(t *testing.T, cfg Config, rounds int, touch bool) *deferRun {
	t.Helper()
	cfg.Procs = 2
	sys := New(cfg)
	a := sys.MallocPage(PageSize)
	d := &deferRun{sys: sys, n0: sys.nodes[0], pid: PageID(int(a) / PageSize)}
	snap := func(n *Node) []byte {
		n.mu.Lock()
		defer n.mu.Unlock()
		return bytes.Clone(n.pageFor(d.pid).data)
	}
	sys.Register("rewrite", func(n *Node, _ []byte) {
		for r := 0; r < rounds; r++ {
			if n.ID() == 0 {
				if r == 0 {
					n.ReadI32(a)
					d.base = snap(n)
				}
				t0 := n.Now()
				n.WriteI32(a+Addr(8*r), int32(100+r))
				d.took = append(d.took, n.Now()-t0)
				d.snaps = append(d.snaps, snap(n))
			} else if touch && r == rounds-1 {
				n.WriteI32(a+PageSize-4, -1)
			}
			n.Barrier()
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("rewrite", nil) }); err != nil {
		t.Fatal(err)
	}
	return d
}

// seqs returns the sequence numbers of node 0's intervals, oldest first.
func (d *deferRun) seqs() []int {
	var s []int
	for _, ivl := range d.n0.intervals[0] {
		s = append(s, ivl.seq)
	}
	return s
}

// checkGauge fails the test unless every node's metadata gauge equals what
// it holds.
func (d *deferRun) checkGauge(t *testing.T) {
	t.Helper()
	for _, n := range d.sys.nodes {
		if got, want := n.Stats().ProtoBytes, protoRecount(n); got != want {
			t.Errorf("node %d: metadata gauge %d, holds %d", n.ID(), got, want)
		}
	}
}

// encodeCost is one diff encode on the run's platform.
func encodeCost(plat *sim.Platform) sim.Time {
	return plat.DiffCreate + sim.Time(float64(PageSize)*plat.DiffPerByte)
}

// TestDeferredDiffRewriteChargesTwinCopy: a write that reopens a page whose
// previous interval still owes its diff costs its writer a fault and a twin
// copy, exactly — every closed interval's diff is encoded on the host and
// none is paid yet.
func TestDeferredDiffRewriteChargesTwinCopy(t *testing.T) {
	const rounds = 4
	d := deferProgram(t, Config{DisableGC: true}, rounds, false)
	plat := d.sys.Platform()
	for r := 1; r < rounds; r++ {
		if want := plat.FaultOverhead + plat.TwinCopy; d.took[r] != want {
			t.Errorf("rewrite %d took %d ns, want FaultOverhead+TwinCopy %d", r, d.took[r], want)
		}
	}
	st := d.n0.Stats()
	if unpaid := len(d.n0.pageFor(d.pid).unpaid); st.DiffsCreated != rounds || st.DiffsPaid != 0 || unpaid != rounds {
		t.Errorf("node 0 created %d diffs, paid %d, owes %d; want %d, 0, %d",
			st.DiffsCreated, st.DiffsPaid, unpaid, rounds, rounds)
	}
	if r := d.sys.Report(); r.DiffsCreated != rounds || r.DiffsPaid != 0 {
		t.Errorf("Report counts %d created, %d paid", r.DiffsCreated, r.DiffsPaid)
	}
	d.checkGauge(t)
}

// TestDeferredDiffPaidOnceAtFirstServe: the first serve of an unpaid diff
// adds one encode to the reply's service time, a second serve nothing, and
// a grant forwarding it afterwards nothing either; an unpaid diff a grant
// forwards first is paid there, once. The newest interval's diff is paid
// at its first serve like any other.
func TestDeferredDiffPaidOnceAtFirstServe(t *testing.T) {
	const rounds = 4
	d := deferProgram(t, Config{DisableGC: true}, rounds, false)
	n, pid := d.n0, d.pid
	enc := encodeCost(d.sys.Platform())
	seqs := d.seqs()
	n.mu.Lock()
	defer n.mu.Unlock()
	ls := &lockState{inData: map[PageID]bool{}}
	ls.addData(pid)
	grant := func(seq int) sim.Time {
		var w wbuf
		return n.putGrantDataLocked(&w, ls, []*interval{n.intervals[0][seq-n.ivlBase[0]]})
	}
	serve := func(seq int) sim.Time {
		_, c := n.serveDiffLocked(pid, seq)
		return c
	}
	for _, step := range []struct {
		name string
		cost func(int) sim.Time
		seq  int
		want sim.Time
	}{
		{"first serve of an unpaid diff", serve, seqs[0], enc},
		{"second serve", serve, seqs[0], 0},
		{"grant after the serve", grant, seqs[0], 0},
		{"grant of an unpaid diff", grant, seqs[1], enc},
		{"serve after the grant", serve, seqs[1], 0},
		{"first serve of the newest diff", serve, seqs[rounds-1], enc},
		{"second serve of it", serve, seqs[rounds-1], 0},
	} {
		if got := step.cost(step.seq); got != step.want {
			t.Errorf("%s (interval %d): %d ns of service, want %d", step.name, step.seq, got, step.want)
		}
	}
	if st := n.stats; st.DiffsPaid != 3 || len(n.pageFor(pid).unpaid) != rounds-3 {
		t.Errorf("paid %d diffs, %d still unpaid; want 3 and %d", st.DiffsPaid, len(n.pageFor(pid).unpaid), rounds-3)
	}
	if got, want := n.stats.ProtoBytes, protoRecount(n); got != want {
		t.Errorf("metadata gauge %d, holds %d", got, want)
	}
}

// TestDeferredDiffServedBytesMatchEager: what an unpaid diff serves is the
// diff of node 0's copy at the end of the interval against the copy it
// started from.
func TestDeferredDiffServedBytesMatchEager(t *testing.T) {
	const rounds = 5
	d := deferProgram(t, Config{DisableGC: true}, rounds, false)
	n := d.n0
	n.mu.Lock()
	defer n.mu.Unlock()
	prev := d.base
	for k, seq := range d.seqs() {
		got, _ := n.serveDiffLocked(d.pid, seq)
		want, _ := makeDiff(new(bufPool), d.snaps[k], prev, nil)
		if !bytes.Equal(got, want) {
			t.Errorf("interval %d served diff %x, want %x", seq, got, want)
		}
		prev = d.snaps[k]
	}
}

// TestDeferredDiffInvalidationPaysEach: a write notice on a page over k+1
// unpaid diffs charges k+1 encodes to the node clock and settles them all,
// the newest interval's included. Run end to end, node 1's write in the
// last interval does the same at the closing barrier.
func TestDeferredDiffInvalidationPaysEach(t *testing.T) {
	const rounds = 4
	d := deferProgram(t, Config{DisableGC: true}, rounds, false)
	n := d.n0
	n.mu.Lock()
	pg := n.pageFor(d.pid)
	notice := &interval{creator: 1, seq: 0, vc: VectorClock{0, 1}, pages: []PageID{d.pid}}
	t0 := n.Now()
	n.invalidateLocked(pg, notice)
	took := n.Now() - t0
	left, twin := len(pg.unpaid), pg.twin != nil
	paid, gauge, held := n.stats.DiffsPaid, n.stats.ProtoBytes, protoRecount(n)
	n.mu.Unlock()
	if want := rounds * encodeCost(d.sys.Platform()); took != want {
		t.Errorf("invalidation over %d unpaid diffs charged %d ns to the node clock, want %d", rounds, took, want)
	}
	if left != 0 || twin || paid != rounds {
		t.Errorf("after the invalidation: %d still unpaid, twin kept %v, %d paid; want 0, false, %d", left, twin, paid, rounds)
	}
	if gauge != held {
		t.Errorf("metadata gauge %d, holds %d", gauge, held)
	}

	e := deferProgram(t, Config{DisableGC: true}, rounds, true)
	if st := e.n0.Stats(); st.DiffsCreated != rounds || st.DiffsPaid != rounds {
		t.Errorf("end to end: %d created, %d paid; want %d, all paid by node 1's notice", st.DiffsCreated, st.DiffsPaid, rounds)
	}
	e.checkGauge(t)
}

// TestDeferredDiffRetiredUnpaid: collecting at every episode, the collector
// retires node 0's intervals with their diffs unpaid — nobody ever asked
// for them — and every node's gauge still equals what it holds.
func TestDeferredDiffRetiredUnpaid(t *testing.T) {
	const rounds = 12
	d := deferProgram(t, Config{GCPressure: 1}, rounds, false)
	st := d.n0.Stats()
	left := d.n0.pageFor(d.pid).unpaid
	if st.IntervalsRetired == 0 || st.DiffsPaid != 0 || st.DiffsCreated != rounds || int64(len(left)) >= st.DiffsCreated {
		t.Fatalf("retired %d intervals; %d created, %d paid, %d still unpaid: want retirement to free unpaid diffs",
			st.IntervalsRetired, st.DiffsCreated, st.DiffsPaid, len(left))
	}
	for _, ivl := range left {
		if ivl.seq < d.n0.ivlBase[0] {
			t.Errorf("retired interval %d still unpaid", ivl.seq)
		}
	}
	d.checkGauge(t)
}

// BenchmarkForkJoin is the master forking one parallel region per op on
// eight nodes, each of which writes one word of a page of its own: every
// region boundary closes each node's interval, so from the second region
// on every write is a rewrite of a page whose previous diff is still owed.
// It reports host B/op and allocs/op, and the master's virtual time per
// region as virt-ns/region.
func BenchmarkForkJoin(b *testing.B) {
	const procs = 8
	sys := New(Config{Procs: procs})
	base := sys.MallocPage(procs * PageSize)
	sys.Register("rewrite", func(n *Node, arg []byte) {
		n.WriteI64(base+Addr(n.ID()*PageSize), int64(arg[0]))
	})
	var virt sim.Time
	b.ReportAllocs()
	if err := sys.Run(func(n *Node) {
		n.RunParallel("rewrite", []byte{0}) // first touches, untimed
		b.ResetTimer()
		t0 := n.Now()
		for i := 0; i < b.N; i++ {
			n.RunParallel("rewrite", []byte{byte(1 + i%255)})
		}
		virt = n.Now() - t0
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(virt)/float64(b.N), "virt-ns/region")
}
