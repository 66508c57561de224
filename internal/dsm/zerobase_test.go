package dsm

import (
	"testing"

	"repro/internal/sim"
)

// pageTraffic reads what a run's page service did as the nodes saw it: the
// whole pages node `reader` installed, the diffs it applied, and the fetch
// requests each node served. The tests using it run barrier-only programs,
// where no thread reports to the consensus and the fetch server is the only
// handler that interrupts a node — so a node's Interrupts ARE the requests it served,
// and 0 means it was never asked.
func pageTraffic(t *testing.T, sys *System, reader int) (pageFetches, diffsApplied int64, served []int64) {
	t.Helper()
	st := sys.Node(reader).Stats()
	served = make([]int64, sys.Procs())
	var total int64
	for i := range served {
		served[i] = sys.Node(i).Stats().Interrupts
		total += served[i]
	}
	if reqs, _ := sys.Switch().Stats().ByType(msgFetchReq); reqs != total {
		t.Fatalf("test premise: %d interrupts for %d fetch requests — some other handler ran", total, reqs)
	}
	return st.PageFetches, st.DiffsApplied, served
}

// TestZeroBaseFirstTouch: a page nobody has written is zeros wherever it
// is first touched. On a node that is not its home the touch is a fault —
// it costs the fault overhead, never nothing — but moves no message and is
// not a fault round; a first write then takes the ordinary write fault on
// top. A multi-page access over such pages is one fault entry for all of
// them.
func TestZeroBaseFirstTouch(t *testing.T) {
	sys := New(Config{Procs: 2})
	// One home block of node 0: the read page, the written page, a span.
	a := sys.MallocPage(HomeBlockPages * PageSize)
	var read, write, span sim.Time
	sys.Register("touch", func(n *Node, _ []byte) {
		if n.ID() != 1 {
			return
		}
		t0 := n.Now()
		if got := n.ReadI64(a); got != 0 {
			t.Errorf("untouched page read %d, want 0", got)
		}
		read = n.Now() - t0
		t0 = n.Now()
		n.WriteI64(a+PageSize, 5)
		write = n.Now() - t0
		buf := make([]byte, 3*PageSize)
		t0 = n.Now()
		n.ReadBytes(a+2*PageSize+100, buf)
		span = n.Now() - t0
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("untouched span byte %d = %d, want 0", i, b)
			}
		}
	})
	if err := sys.Run(func(n *Node) {
		n.RunParallel("touch", nil)
		if got := n.ReadI64(a + PageSize); got != 5 {
			t.Errorf("home read %d of the page node 1 wrote first, want 5", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	plat := sys.Platform()
	if read != plat.FaultOverhead {
		t.Errorf("first read of an untouched page took %d ns, want the fault overhead %d", read, plat.FaultOverhead)
	}
	if want := 2*plat.FaultOverhead + plat.TwinCopy; write != want {
		t.Errorf("first write of an untouched page took %d ns, want zero fill + write fault = %d", write, want)
	}
	if span != plat.FaultOverhead {
		t.Errorf("4-page untouched span took %d ns, want one fault overhead %d", span, plat.FaultOverhead)
	}
	st := sys.Node(1).Stats()
	if st.ZeroFills != 6 || st.ReadFaults != 5 || st.WriteFaults != 2 || st.FaultRounds != 0 || st.PageFetches != 0 {
		t.Errorf("node 1: %d zero fills, %d read / %d write faults, %d rounds, %d page fetches; want 6, 5, 2, 0, 0",
			st.ZeroFills, st.ReadFaults, st.WriteFaults, st.FaultRounds, st.PageFetches)
	}
	if st.FaultWait != 3*plat.FaultOverhead {
		t.Errorf("node 1 fault wait %d ns, want three fault entries %d", st.FaultWait, 3*plat.FaultOverhead)
	}
	// The master's final read is the only network fault of the run: its
	// home copy takes node 1's one diff.
	if p, d, served := pageTraffic(t, sys, 0); p != 0 || d != 1 || served[0] != 0 || served[1] != 1 {
		t.Errorf("master fetched %d pages / applied %d diffs, requests served %v; want 0 / 1 and one request at node 1", p, d, served)
	}
}

// TestZeroBaseNeverGoesHome: a never-held page that has been written
// resolves at its writers, not at its home (node 0 throughout, which never
// touches the page). One foreign notice squashes to a whole page from its
// creator; two concurrent writers' notices are one request per creator,
// their diffs applied over zeros. The home is never asked: it serves no
// request, and its copy lacks every write anyway.
func TestZeroBaseNeverGoesHome(t *testing.T) {
	for _, writers := range []int{1, 2} {
		procs := writers + 2
		sys := New(Config{Procs: procs})
		a := sys.MallocPage(PageSize)
		sys.Register("write-read", func(n *Node, _ []byte) {
			if me := n.ID(); me >= 1 && me <= writers {
				n.WriteI64(a+Addr(64*me), int64(100+me))
			}
			n.Barrier()
			if n.ID() == procs-1 {
				for w := 1; w <= writers; w++ {
					if got := n.ReadI64(a + Addr(64*w)); got != int64(100+w) {
						t.Errorf("%d writers: reader saw %d at writer %d's word, want %d", writers, got, w, 100+w)
					}
				}
			}
		})
		if err := sys.Run(func(n *Node) { n.RunParallel("write-read", nil) }); err != nil {
			t.Fatal(err)
		}
		st := sys.Node(procs - 1).Stats()
		p, d, served := pageTraffic(t, sys, procs-1)
		for node, reqs := range served {
			want := int64(0)
			if node >= 1 && node <= writers {
				want = 1
			}
			if reqs != want {
				t.Errorf("%d writers: node %d served %d requests, want %d (the home, node 0, is never asked)", writers, node, reqs, want)
			}
		}
		if writers == 1 {
			if p != 1 || d != 0 {
				t.Errorf("one notice: reader fetched %d pages and applied %d diffs; want one whole page from the creator", p, d)
			}
		} else if p != 0 || d != 2 {
			t.Errorf("two concurrent notices: reader fetched %d pages and applied %d diffs; want one diff per creator over zeros", p, d)
		}
		if st.FaultRounds != 1 || st.ZeroFills != 0 {
			t.Errorf("%d writers: reader took %d rounds and %d zero fills, want 1 and 0", writers, st.FaultRounds, st.ZeroFills)
		}
	}
}

// TestZeroBaseFlushedCopyRefetchesFromHome: once the collector has
// dropped notices a node never applied (refetch), zeros are no longer a
// base for that node — its next fault fetches the home's validated copy,
// whole. The writer stops two collecting episodes before the read, so the
// late reader holds no notice at all and nothing but the home's copy can
// explain the value it sees.
func TestZeroBaseFlushedCopyRefetchesFromHome(t *testing.T) {
	const P, rounds, quiet = 3, 4, 3
	sys := New(Config{Procs: P, GCPressure: 1})
	a := sys.MallocPage(8) // homed at node 0; written by node 1; read late by node 2
	sys.Register("lateread", func(n *Node, _ []byte) {
		for r := 0; r < rounds+quiet; r++ {
			if n.ID() == 1 && r < rounds {
				n.WriteI64(a, int64(1000+r))
			}
			n.Barrier()
		}
		if n.ID() != 2 {
			return
		}
		n.mu.Lock()
		pg := n.pageFor(0)
		flushed := pg.data == nil && pg.refetch && len(pg.missing) == 0
		n.mu.Unlock()
		if !flushed {
			t.Error("test premise: the late reader's copy is not a flushed one with every notice dropped")
		}
		before := n.Stats()
		if got := n.ReadI64(a); got != int64(1000+rounds-1) {
			t.Errorf("late reader saw %d, want %d", got, 1000+rounds-1)
		}
		after := n.Stats()
		if after.PageFetches-before.PageFetches != 1 || after.DiffsApplied != before.DiffsApplied || after.ZeroFills != 0 {
			t.Errorf("late read fetched %d pages, applied %d diffs, zero-filled %d; want one whole page from the home",
				after.PageFetches-before.PageFetches, after.DiffsApplied-before.DiffsApplied, after.ZeroFills)
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("lateread", nil) }); err != nil {
		t.Fatal(err)
	}
	// The only request the home ever serves is that refetch: it wrote
	// nothing, so nobody asks it for a diff, and its own validation waves
	// ask the writer.
	if p, _, served := pageTraffic(t, sys, 2); p != 1 || served[0] != 1 {
		t.Errorf("late reader fetched %d pages, home served %d requests; want the one refetch", p, served[0])
	}
}

// TestZeroBaseSpanOfOneWrittenPage: zero-fill pages drop out of a span
// round's plan, and a span left with ONE networked page costs exactly the
// one-page cold fault, to the nanosecond.
func TestZeroBaseSpanOfOneWrittenPage(t *testing.T) {
	sys := New(Config{Procs: 2})
	a := sys.MallocPage(3 * PageSize)
	var took sim.Time
	sys.Register("span", func(n *Node, _ []byte) {
		if n.ID() == 1 {
			t0 := n.Now()
			n.ReadBytes(a, make([]byte, 3*PageSize))
			took = n.Now() - t0
		}
	})
	if err := sys.Run(func(n *Node) {
		n.WriteI64(a+PageSize, 9) // the middle page only
		n.RunParallel("span", nil)
	}); err != nil {
		t.Fatal(err)
	}
	plat := sys.Platform()
	middle := make([]byte, PageSize)
	middle[0] = 9
	if want := plat.FaultOverhead + pageExchange(plat, PageID(int(a)/PageSize+1), middle); took != want {
		t.Errorf("span with one written page took %d ns, want the one-page cold fault %d", took, want)
	}
	st := sys.Node(1).Stats()
	if st.ReadFaults != 3 || st.ZeroFills != 2 || st.FaultRounds != 1 || st.FaultPages != 1 {
		t.Errorf("%d read faults, %d zero fills, %d rounds / %d pages; want 3, 2, 1 / 1",
			st.ReadFaults, st.ZeroFills, st.FaultRounds, st.FaultPages)
	}
	if p, d, served := pageTraffic(t, sys, 1); p != 1 || d != 0 || served[0] != 1 {
		t.Errorf("reader fetched %d pages / applied %d diffs, node 0 served %d requests; want 1 / 0 / 1", p, d, served[0])
	}
}
