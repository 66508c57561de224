package dsm

import (
	"math"
	"runtime"
	"testing"
)

// A page a node only hears of costs it an entry: a write notice names the
// page, and nothing of a copy — bytes, twin, clocks — exists until the node
// uses the page's bytes. At the page's home that first use builds the copy
// from zeros (useLocked).

// coldRecord has node 1 of sys write one word of each of pages pages from
// base — word p+1 on page p — in one interval, and returns a copy of its
// record as another node receives it, holding none of those pages.
func coldRecord(sys *System, base Addr, pages int) *interval {
	w := sys.nodes[1]
	for p := range pages {
		w.WriteI64(base+Addr(p*PageSize), int64(p+1))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closeIntervalLocked()
	ivl := w.intervals[1][len(w.intervals[1])-1]
	return &interval{creator: 1, seq: ivl.seq, vc: ivl.vc.clone(), pages: ivl.pages}
}

// poolFree is the number of free buffers in each class of the pool.
func poolFree(p *bufPool) []int {
	free := make([]int, len(p))
	for i := range p {
		p[i].mu.Lock()
		free[i] = len(p[i].free)
		p[i].mu.Unlock()
	}
	return free
}

// TestColdEntriesAllocateLittle: on a 64-node system node 0 incorporates a
// record naming 112 pages it never used, 8 of them homed at node 0. Each
// page costs its entry and its notice, at most 64 bytes: no page gets a copy
// part and nothing is taken from the buffer pool, though the pool holds page
// buffers. A later read of one of node 0's home pages returns the writer's
// word for the faults it took when the home built its copy at the page's
// first mention: one read fault, one round, no zero fill. With GCPressure 1
// the home's first use is the collector's validation wave instead, and the
// read then takes no fault at all.
func TestColdEntriesAllocateLittle(t *testing.T) {
	const procs, pages, homed, perPage = 64, 112, 8, 64
	for _, wave := range []bool{false, true} {
		t.Run(map[bool]string{false: "fault", true: "wave"}[wave], func(t *testing.T) {
			cfg := Config{Procs: procs, DisableGC: true}
			if wave {
				cfg = Config{Procs: procs, GCPressure: 1}
			}
			sys := New(cfg)
			defer sys.Close()
			base := sys.MallocPage(pages * PageSize)
			first := PageID(base / PageSize)
			rec := coldRecord(sys, base, pages)
			n := sys.nodes[0]
			var home []PageID
			for p := range PageID(pages) {
				if n.isHome(first + p) {
					home = append(home, first+p)
				}
			}
			if len(rec.pages) != pages || len(home) != homed {
				t.Fatalf("test premise: a record of %d pages, %d homed at node 0; have %d and %d", pages, homed, len(rec.pages), len(home))
			}

			n.mu.Lock()
			// The node's tables are sized beforehand, so what is measured is
			// what each page itself costs. The heap counters are the
			// process's, so the least of three incorporations is taken.
			n.pages = make([]*page, sys.heapPages())
			n.gcPages = make([]*page, 0, pages)
			n.intervals[1] = make([]*interval, 0, 1)
			for range homed {
				sys.pool.put(make([]byte, PageSize))
			}
			free := poolFree(&sys.pool)
			per := uint64(math.MaxUint64)
			for range 3 {
				clear(n.pages)
				n.gcPages, n.intervals[1] = n.gcPages[:0], n.intervals[1][:0]
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				n.incorporateLocked([]*interval{rec}, nil)
				runtime.ReadMemStats(&after)
				per = min(per, (after.TotalAlloc-before.TotalAlloc)/pages)
			}
			t.Logf("a page named by a notice costs %d bytes", per)
			if per > perPage {
				t.Errorf("a page named by a notice cost %d bytes, want <= %d", per, perPage)
			}
			for i, k := range poolFree(&sys.pool) {
				if k != free[i] {
					t.Errorf("pool class %d went from %d free buffers to %d", i, free[i], k)
				}
			}
			for _, pid := range rec.pages {
				if pg := n.pages[pid]; pg == nil || pg.pageCopy != nil || len(pg.missing) != 1 {
					t.Fatalf("page %d: entry %v; want one missing notice and no copy part", pid, pg)
				}
			}
			if wave {
				n.gcPurgePagesLocked(&n.thread, rec.vc)
				if st := n.stats; st.GCPagesValidated != homed || st.GCPagesFlushed != 0 {
					t.Errorf("the wave validated %d pages and flushed %d; want the %d home pages and none", st.GCPagesValidated, st.GCPagesFlushed, homed)
				}
			}
			st := n.stats
			n.mu.Unlock()

			pid := home[3]
			if got, want := n.ReadI64(Addr(pid)*PageSize), int64(pid-first+1); got != want {
				t.Errorf("home page %d reads %d, want the writer's %d", pid, got, want)
			}
			faults, rounds := int64(1), int64(1)
			if wave {
				faults, rounds = 0, 0
			}
			after2 := n.Stats()
			if d := [3]int64{after2.ReadFaults - st.ReadFaults, after2.FaultRounds - st.FaultRounds, after2.ZeroFills - st.ZeroFills}; d != [3]int64{faults, rounds, 0} {
				t.Errorf("the read took %d read faults, %d rounds, %d zero fills; want %d, %d, 0", d[0], d[1], d[2], faults, rounds)
			}
		})
	}
}

// BenchmarkIncorporateColdNotices is node 0 of a 64-node system taking a
// 64-node departure's records (departureBatch's: the 126 of other creators
// carry 630 notices on 315 pages, 7 of them homed at node 0) while holding
// none of their pages: what pages the node only hears of cost it. The node's
// tables are emptied, keeping their room, between operations.
func BenchmarkIncorporateColdNotices(b *testing.B) {
	sys := New(Config{Procs: 64, DisableGC: true})
	defer sys.Close()
	_, recs := departureBatch(false)
	n := sys.nodes[0]
	n.mu.Lock()
	defer n.mu.Unlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.incorporateLocked(recs, nil)
		b.StopTimer()
		clear(n.pages)
		clear(n.gcPages)
		n.gcPages = n.gcPages[:0]
		for c := range n.intervals {
			clear(n.intervals[c])
			n.intervals[c] = n.intervals[c][:0]
		}
		clear(n.vc)
		b.StartTimer()
	}
}
