package dsm

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// Page groups (group.go): a thread that faulted on a set of pages in one
// episode fetches that set's stale pages in one round the next time it
// faults on any of them.

// groupPages are four pages of node 0's home block, a page apart, so no
// access to one of them is a span over another.
var groupPages = []int{0, 2, 4, 6}

// groupRun runs two barrier iterations on a fresh system: in each, node 1
// writes one word of the first `rewrite` group pages (all four in the first
// iteration), then node `reader` runs read(n, it, addrs) while every other
// node waits at the next barrier. It returns the finished system.
func groupRun(t *testing.T, cfg Config, reader, rewrite int, read func(n *Node, it int, addrs []Addr)) *System {
	t.Helper()
	sys := New(cfg)
	base := sys.MallocPage(HomeBlockPages * PageSize)
	addrs := make([]Addr, len(groupPages))
	for i, p := range groupPages {
		addrs[i] = base + Addr(p*PageSize)
	}
	sys.Register("groups", func(n *Node, _ []byte) {
		for it := 0; it < 2; it++ {
			if n.ID() == 1 {
				for i, a := range addrs {
					if it == 0 || i < rewrite {
						n.WriteI64(a, int64(100+it))
					}
				}
			}
			n.Barrier()
			if n.ID() == reader {
				read(n, it, addrs)
			}
			n.Barrier()
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("groups", nil) }); err != nil {
		t.Fatal(err)
	}
	return sys
}

// wantWord is what a group page holds after iteration it: the value of the
// last iteration that rewrote it.
func wantWord(it, i, rewrite int) int64 {
	if it == 1 && i < rewrite {
		return 101
	}
	return 100
}

// staleLocked reports whether the reader's copy of the page at a is stale.
func staleLocked(n *Node, a Addr) bool {
	return !readableLocked(n.pageFor(PageID(int(a) / PageSize)))
}

// TestGroupRoundCost: in the second barrier iteration, a thread re-reading
// four pages another node rewrote takes one fault round for all of them —
// one request to the writer for four diffs — and the round costs one fault
// entry, both messages on the wire, one service that encodes four diffs,
// and four diff applications, to the nanosecond. A group page nobody
// rewrote costs nothing: with only the first page rewritten the round asks
// for one diff. Groups form whether or not the collector runs.
func TestGroupRoundCost(t *testing.T) {
	for _, tt := range []struct {
		cfg     Config
		rewrite int
	}{
		{Config{Procs: 3}, 4},
		{Config{Procs: 3}, 1},
		{Config{Procs: 4, DisableGC: true}, 4},
	} {
		t.Run(fmt.Sprintf("p%d/rewrite%d/gcoff=%v", tt.cfg.Procs, tt.rewrite, tt.cfg.DisableGC), func(t *testing.T) {
			var took sim.Time
			var seq int
			var before, after NodeStats
			var reqs int64
			sys := groupRun(t, tt.cfg, 2, tt.rewrite, func(n *Node, it int, addrs []Addr) {
				if it == 1 {
					n.mu.Lock()
					seq = n.pageFor(PageID(int(addrs[0]) / PageSize)).missing[0].seq
					n.mu.Unlock()
					before = n.Stats()
					reqs, _ = n.Sys().Switch().Stats().ByType(msgFetchReq)
				}
				t0 := n.Now()
				for i, a := range addrs {
					if got := n.ReadI64(a); got != wantWord(it, i, tt.rewrite) {
						t.Errorf("iteration %d: page %d reads %d, want %d", it, groupPages[i], got, wantWord(it, i, tt.rewrite))
					}
				}
				if it == 1 {
					took = n.Now() - t0
					after = n.Stats()
					r, _ := n.Sys().Switch().Stats().ByType(msgFetchReq)
					reqs = r - reqs
				}
			})
			plat := sys.Platform()
			items := make([]fetchItem, tt.rewrite)
			for i := range items {
				items[i] = fetchItem{pid: PageID(groupPages[i]), seq: seq, data: make([]byte, runBytes(0, 4))}
			}
			req, rep := fetchItemsWireLen(items...)
			k := sim.Time(tt.rewrite)
			want := plat.FaultOverhead + plat.UDP.Latency(req) + plat.RequestService +
				k*(plat.DiffCreate+sim.Time(float64(PageSize)*plat.DiffPerByte)) +
				plat.UDP.Latency(rep) + k*(plat.DiffApply+sim.Time(4*plat.DiffApplyPerByte))
			if took != want {
				t.Errorf("second-iteration reads took %d ns, want one round of %d diffs: %d", took, tt.rewrite, want)
			}
			rounds, pages, group := after.FaultRounds-before.FaultRounds, after.FaultPages-before.FaultPages, after.GroupPages-before.GroupPages
			if rounds != 1 || pages != int64(tt.rewrite) || group != int64(tt.rewrite-1) || reqs != 1 {
				t.Errorf("%d rounds, %d pages, %d group pages, %d fetch requests; want 1, %d, %d, 1",
					rounds, pages, group, reqs, tt.rewrite, tt.rewrite-1)
			}
			if reads := after.ReadFaults - before.ReadFaults; reads != 1 {
				t.Errorf("%d read faults, want 1: group pages are not accessed pages", reads)
			}
		})
	}
}

// TestGroupNoneUnderLock: a thread holding a lock adds no group pages — its
// fault fetches the accessed page alone, and the lock's data is that page —
// and the same thread's next fault outside the lock fetches the rest.
func TestGroupNoneUnderLock(t *testing.T) {
	const lockID = 5
	var locked, free NodeStats
	var data []PageID
	var staleAfter []bool
	groupRun(t, Config{Procs: 3}, 2, len(groupPages), func(n *Node, it int, addrs []Addr) {
		if it == 0 {
			for _, a := range addrs {
				n.ReadI64(a)
			}
			return
		}
		st0 := n.Stats()
		n.Acquire(lockID)
		n.ReadI64(addrs[0])
		n.mu.Lock()
		data = slices.Clone(n.lockFor(lockID).data)
		for _, a := range addrs {
			staleAfter = append(staleAfter, staleLocked(n, a))
		}
		n.mu.Unlock()
		n.Release(lockID)
		st1 := n.Stats()
		for i, a := range addrs[1:] {
			if got := n.ReadI64(a); got != 101 {
				t.Errorf("page %d reads %d, want 101", groupPages[i+1], got)
			}
		}
		st2 := n.Stats()
		locked.FaultRounds, locked.GroupPages = st1.FaultRounds-st0.FaultRounds, st1.GroupPages-st0.GroupPages
		free.FaultRounds, free.GroupPages = st2.FaultRounds-st1.FaultRounds, st2.GroupPages-st1.GroupPages
	})
	if locked.FaultRounds != 1 || locked.GroupPages != 0 {
		t.Errorf("under the lock: %d rounds, %d group pages; want 1, 0", locked.FaultRounds, locked.GroupPages)
	}
	if !slices.Equal(staleAfter, []bool{false, true, true, true}) {
		t.Errorf("after the locked fault, stale = %v; want only the accessed page current", staleAfter)
	}
	if !slices.Equal(data, []PageID{PageID(groupPages[0])}) {
		t.Errorf("lock data = %v, want the one page faulted under it", data)
	}
	if free.FaultRounds != 1 || free.GroupPages != 2 {
		t.Errorf("after the release: %d rounds, %d group pages; want 1, 2", free.FaultRounds, free.GroupPages)
	}
}

// TestGroupPerClient: two threads of one multi-client node each read their
// own half of the group pages. In the second iteration, thread A's fault
// fetches the rest of A's half and nothing of B's, whose pages stay stale
// until B faults on one of them.
func TestGroupPerClient(t *testing.T) {
	var clks [2]sim.Clock
	var cls [2]*Client
	var aGroup, bGroup int64
	var bStale []bool
	groupRun(t, Config{Procs: 3}, 2, len(groupPages), func(n *Node, it int, addrs []Addr) {
		for k := range cls {
			if cls[k] == nil {
				cls[k] = n.NewClient(&clks[k], ClientCosts{})
			}
			clks[k].AdvanceTo(n.Now())
		}
		half := [2][]Addr{addrs[:2], addrs[2:]}
		st0 := n.Stats()
		cls[0].ReadI64(half[0][0])
		st1 := n.Stats()
		if it == 1 {
			n.mu.Lock()
			bStale = []bool{staleLocked(n, half[0][1]), staleLocked(n, half[1][0]), staleLocked(n, half[1][1])}
			n.mu.Unlock()
		}
		cls[0].ReadI64(half[0][1])
		for _, a := range half[1] {
			cls[1].ReadI64(a)
		}
		st2 := n.Stats()
		aGroup, bGroup = st1.GroupPages-st0.GroupPages, st2.GroupPages-st1.GroupPages
		n.AdvanceClockTo(sim.Max(clks[0].Now(), clks[1].Now()))
	})
	if !slices.Equal(bStale, []bool{false, true, true}) {
		t.Errorf("after A's fault, stale = %v (A's other page, B's two); want [false true true]", bStale)
	}
	if aGroup != 1 || bGroup != 1 {
		t.Errorf("group pages: A's round %d, B's rounds %d; want 1 each", aGroup, bGroup)
	}
}

// TestGroupPerClientConcurrent: the two threads of TestGroupPerClient fault
// at the same moment, under the race detector in make span-race: each
// round still fetches only its own thread's group, and both read what the
// writer wrote.
func TestGroupPerClientConcurrent(t *testing.T) {
	var clks [2]sim.Clock
	var cls [2]*Client
	var st NodeStats
	groupRun(t, Config{Procs: 3}, 2, len(groupPages), func(n *Node, it int, addrs []Addr) {
		var wg sync.WaitGroup
		for k := range cls {
			if cls[k] == nil {
				cls[k] = n.NewClient(&clks[k], ClientCosts{})
			}
			clks[k].AdvanceTo(n.Now())
			wg.Add(1)
			go func(cl *Client, mine []Addr) {
				defer wg.Done()
				for _, a := range mine {
					if got := cl.ReadI64(a); got != int64(100+it) {
						t.Errorf("iteration %d: a client read %d, want %d", it, got, 100+it)
					}
				}
			}(cls[k], addrs[2*k:2*k+2])
		}
		wg.Wait()
		n.AdvanceClockTo(sim.Max(clks[0].Now(), clks[1].Now()))
		st = n.Stats()
	})
	if st.GroupPages != 2 || st.FaultPages-st.GroupPages != st.FaultRounds {
		t.Errorf("%d rounds for %d pages, %d group pages; want one group page per thread", st.FaultRounds, st.FaultPages, st.GroupPages)
	}
}

// ---------------------------------------------------------------------
// Per-layer benchmarks: a cold fault and a group round.
// ---------------------------------------------------------------------

// BenchmarkColdFault is one fault round on a page with no copy here: node
// 1's copy of a page node 0 homes is discarded as a collector flush leaves
// it, and the read fault rebuilds it from the home — one request, one
// whole-page reply.
func BenchmarkColdFault(b *testing.B) {
	sys := New(Config{Procs: 2, DisableGC: true})
	defer sys.Close()
	a := sys.MallocPage(PageSize)
	pid := PageID(a / PageSize)
	n := sys.nodes[1]
	if n.isHome(pid) {
		b.Fatal("benchmark premise: node 0 homes the page")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.mu.Lock()
		pg := n.pageFor(pid)
		pg.data, pg.state, pg.refetch = nil, pageInvalid, true
		n.thread.ensureReadableLocked(pg)
		n.mu.Unlock()
	}
	if st := n.Stats(); st.FaultRounds != int64(b.N) || st.PageFetches != int64(b.N) {
		b.Fatalf("%d rounds fetched %d pages for %d faults", st.FaultRounds, st.PageFetches, b.N)
	}
}

// BenchmarkGroupRound is node 1 re-reading one word of each of 16 pages
// node 0 has just rewritten, one page per access, after the two barriers
// of an iteration: one fault round whose page group adds the other 15
// pages (16 one-page rounds without groups). Only the reads are timed and
// counted; the writes and barriers run with the timer stopped.
func BenchmarkGroupRound(b *testing.B) {
	const pages = 16
	sys := New(Config{Procs: 2, DisableGC: true})
	base := sys.MallocPage(pages * PageSize)
	sys.Register("group", func(n *Node, _ []byte) {
		for it := -2; it < b.N; it++ { // two untimed iterations form the group
			if n.ID() == 0 {
				for p := 0; p < pages; p++ {
					n.WriteI64(base+Addr(p*PageSize), int64(it))
				}
			}
			n.Barrier()
			if n.ID() == 1 {
				if it >= 0 {
					b.StartTimer()
				}
				for p := 0; p < pages; p++ {
					n.ReadI64(base + Addr(p*PageSize))
				}
				if it >= 0 {
					b.StopTimer()
				}
			}
			n.Barrier()
		}
	})
	b.ReportAllocs()
	b.StopTimer()
	b.ResetTimer()
	if err := sys.Run(func(n *Node) { n.RunParallel("group", nil) }); err != nil {
		b.Fatal(err)
	}
	if st := sys.Node(1).Stats(); st.GroupPages < int64(b.N*(pages-1)) {
		b.Fatalf("%d group pages over %d timed iterations: the reads took no group round", st.GroupPages, b.N)
	}
}
