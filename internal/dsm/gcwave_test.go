package dsm

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
)

// The collector's validation wave goes through the fault path's exchange
// (Client.fetch) and installs through applyFaultLocked. These tests pin
// what that means on the wire and on the clock. All run with the acquire
// source off and no locks, so a node's Interrupts are exactly the fetch
// requests it served (see pageTraffic).

// waveFill is the byte the wave tests put at heap offset o in round r.
func waveFill(r, o int) byte { return byte(1 + (o*3+r*29)%250) }

// TestGCWaveThroughFetch: on three nodes collecting at every episode, node
// 0 — arriving last at the barrier, so the barrier costs it nothing but
// two arrivals and the wave — validates sixteen of its homed pages that
// nodes 1 and 2 rewrote whole. Node 1 wrote eleven of them and is asked in
// ⌈11/8⌉ = 2 requests, node 2 five and is asked in one; nothing else
// crosses the wire for pages. The wave completes when its latest reply
// arrives, NOT at the inbound-link floor, which sixteen page-sized diffs
// push well past it — applying the floor here (a model change the collector
// does not make, see gcPurgePagesLocked) fails this test.
func TestGCWaveThroughFetch(t *testing.T) {
	SetDebugOracle(true)
	defer SetDebugOracle(false)
	const P = 3
	sys := New(Config{Procs: P, GCMinRetire: 1, GCPressure: -1})
	// Blocks 0 and 3 are homed at node 0.
	heap := sys.MallocPage(4 * HomeBlockPages * PageSize)
	var homed []PageID
	for _, blk := range []int{0, 3} {
		homed = append(homed, pageRange(blk*HomeBlockPages, (blk+1)*HomeBlockPages)...)
	}
	writer := func(i int) int { // of homed[i]
		if i < 11 {
			return 1
		}
		return 2
	}
	want := make([]byte, 4*HomeBlockPages*PageSize)
	for i, pid := range homed {
		for o := int(pid) * PageSize; o < int(pid+1)*PageSize; o++ {
			want[o] = waveFill(writer(i), o)
		}
	}
	image := make([]byte, len(want))
	var took sim.Time
	sys.Register("wave", func(n *Node, _ []byte) {
		for i, pid := range homed {
			if writer(i) == n.ID() {
				off := int(pid) * PageSize
				n.WriteBytes(heap+Addr(off), want[off:off+PageSize])
			}
		}
		if n.ID() == 0 {
			n.Compute(4e6) // 100 ms: the root enters the barrier long after both arrivals
			t0 := n.Now()
			n.Barrier()
			took = n.Now() - t0
			n.ReadBytes(heap, image) // validated pages and untouched ones: no fault round
			return
		}
		n.Barrier()
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("wave", nil) }); err != nil {
		t.Fatal(err)
	}
	if d := OracleDiverges(); d != 0 {
		t.Errorf("%d reads diverged from the shadow memory", d)
	}
	if !bytes.Equal(image, want) {
		t.Error("home's image after the wave differs from the op list's prediction")
	}

	p, d, served := pageTraffic(t, sys, 0)
	if !slices.Equal(served, []int64{0, 2, 1}) {
		t.Errorf("fetch requests served per node %v, want [0 2 1]", served)
	}
	b := sys.TrafficBreakdown()
	if b.PageMsgs != 6 {
		t.Errorf("page traffic is %d messages, want three requests and three replies", b.PageMsgs)
	}
	// No fault went to the network: the wave's own count of its traffic is
	// the switch's count of all page service, to the byte.
	if b.GCWaveMsgs != b.PageMsgs || b.GCWaveBytes != b.PageBytes || b.GCWait <= 0 {
		t.Errorf("wave ledger %d msgs / %d B / %v, switch counted %d / %d of page service",
			b.GCWaveMsgs, b.GCWaveBytes, b.GCWait, b.PageMsgs, b.PageBytes)
	}
	if st := sys.Node(0).Stats(); st.GCPagesValidated != 16 || d != 16 || p != 0 || st.FaultRounds != 0 {
		t.Errorf("home validated %d pages with %d diffs, %d whole pages, %d fault rounds; want 16, 16, 0, 0",
			st.GCPagesValidated, d, p, st.FaultRounds)
	}

	// The latest reply is node 1's full request: eight diffs still pending
	// against their twins, encoded as it is served.
	plat := sys.Platform()
	wire := func(count int) (req, rep int) { // of a request for `count` page-sized diffs
		items := make([]fetchItem, count)
		for i := range items {
			items[i] = fetchItem{pid: homed[i], seq: 0, data: make([]byte, 8+PageSize)}
		}
		return fetchItemsWireLen(items...)
	}
	req, rep := wire(HomeBlockPages)
	_, rep3 := wire(3)
	_, rep5 := wire(5)
	encode := plat.DiffCreate + sim.Time(float64(PageSize)*plat.DiffPerByte)
	apply := plat.DiffApply + sim.Time(float64(PageSize)*plat.DiffApplyPerByte)
	arrival := plat.UDP.Latency(req) + plat.RequestService + HomeBlockPages*encode + plat.UDP.Latency(rep)
	floor := 2*plat.UDP.OneWay + sim.Time(float64(rep+rep3+rep5)*plat.UDP.PerByteNS)
	if floor <= arrival {
		t.Fatalf("test premise: the inbound-link floor %d ns must exceed the latest arrival %d ns", floor, arrival)
	}
	if want := 2*plat.RequestService + arrival + 16*apply; took != want {
		t.Errorf("root's barrier took %d ns, want two arrivals + the wave's latest reply + 16 applies = %d (the floor would give %d)",
			took, want, 2*plat.RequestService+floor+16*apply)
	}
}

// TestGCWaveRebuildsFlushedCopyInOneRound: a flushed copy the wave must
// validate — the acquire source's lagging-home override, reproduced by
// calling the purge the way acqEpoch does with the home's registry entry
// rewound — is rebuilt from its home's whole page and its covered tail in
// ONE exchange: both requests leave together and the wave costs the later
// arrival, not a page round followed by a diff round.
func TestGCWaveRebuildsFlushedCopyInOneRound(t *testing.T) {
	SetDebugOracle(true)
	defer SetDebugOracle(false)
	const P, rounds = 3, 4
	sys := New(Config{Procs: P, GCMinRetire: 1, GCPressure: -1})
	a := sys.MallocPage(PageSize) // homed at node 0, written by node 1, never read by node 2
	pid := PageID(int(a) / PageSize)
	word := func(r int) []byte { return []byte{waveFill(r, 0), waveFill(r, 1), waveFill(r, 2), waveFill(r, 3)} }
	var took sim.Time
	var seq int
	var before, after NodeStats
	var servedBefore, served [2]int64 // requests the home and the writer served
	sys.Register("rebuild", func(n *Node, _ []byte) {
		for r := 0; r < rounds; r++ {
			if n.ID() == 1 {
				n.WriteBytes(a, word(r))
			}
			n.Barrier()
		}
		if n.ID() == 2 {
			n.mu.Lock()
			pg := n.pageFor(pid)
			if pg.data != nil || !pg.refetch || len(pg.missing) != 1 {
				t.Errorf("test premise: want a flushed copy owing its one-episode tail; have data=%v refetch=%v missing=%d",
					pg.data != nil, pg.refetch, len(pg.missing))
				n.mu.Unlock()
				return
			}
			seq = pg.missing[0].seq
			floor := n.vc.clone()
			n.mu.Unlock()
			n.sys.purged.mu.Lock()
			n.sys.purged.floors[0] = newVC(P) // "the home has not purged this floor yet"
			n.sys.purged.mu.Unlock()
			for i := range served {
				servedBefore[i] = n.sys.Node(i).Stats().Interrupts
			}
			before = n.Stats()
			t0 := n.Now()
			n.mu.Lock()
			n.gcPurgePagesLocked(&n.c0, floor, floor, false, false)
			n.mu.Unlock()
			took = n.Now() - t0
			for i := range served {
				served[i] = n.sys.Node(i).Stats().Interrupts - servedBefore[i]
			}
			got := make([]byte, 4)
			n.ReadBytes(a, got)
			after = n.Stats()
			if !bytes.Equal(got, word(rounds-1)) {
				t.Errorf("rebuilt copy reads %v, want the last round's %v", got, word(rounds-1))
			}
		}
		n.Barrier()
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("rebuild", nil) }); err != nil {
		t.Fatal(err)
	}
	if d := OracleDiverges(); d != 0 {
		t.Errorf("%d reads diverged from the shadow memory", d)
	}
	if after.GCPagesValidated-before.GCPagesValidated != 1 || after.PageFetches-before.PageFetches != 1 ||
		after.DiffsApplied-before.DiffsApplied != 1 || after.FaultRounds != before.FaultRounds || after.ReadFaults != before.ReadFaults {
		t.Errorf("wave validated %d pages from %d whole pages and %d diffs, then the read took %d faults; want 1, 1, 1, 0",
			after.GCPagesValidated-before.GCPagesValidated, after.PageFetches-before.PageFetches,
			after.DiffsApplied-before.DiffsApplied, after.ReadFaults-before.ReadFaults)
	}
	if served != [2]int64{1, 1} {
		t.Errorf("home and writer served %v requests, want one each", served)
	}
	// The whole page is the later reply; the writer's diff (already encoded:
	// the home's own wave fetched it) lands inside its shadow.
	plat := sys.Platform()
	page := pageExchange(plat, pid)
	dreq, drep := fetchItemsWireLen(fetchItem{pid: pid, seq: seq, data: make([]byte, 8+4)})
	diff := plat.UDP.Latency(dreq) + plat.RequestService + plat.UDP.Latency(drep)
	apply := plat.DiffApply + sim.Time(4*plat.DiffApplyPerByte)
	if want := page + apply; took != want {
		t.Errorf("rebuilding wave took %d ns, want the page reply's arrival + one apply = %d (a page round then a diff round: %d)",
			took, want, page+diff+apply)
	}
}

// TestGCWaveWindow: a wave owing one source more requests than fetch keeps
// in flight still asks for everything, once: node 0 validates more than
// fetchWindow × HomeBlockPages homed pages node 1 wrote, and reads back
// what was written.
func TestGCWaveWindow(t *testing.T) {
	const requests = fetchWindow + 4
	const pages = requests*HomeBlockPages - 3 // homed at node 0
	sys := New(Config{Procs: 2, GCMinRetire: 1, GCPressure: -1})
	heap := sys.MallocPage(2 * requests * HomeBlockPages * PageSize)
	addr := func(i int) Addr { // of the i-th page node 0 homes: blocks alternate
		blk, in := i/HomeBlockPages, i%HomeBlockPages
		return heap + Addr((2*blk*HomeBlockPages+in)*PageSize)
	}
	sys.Register("window", func(n *Node, _ []byte) {
		if n.ID() == 1 {
			for i := 0; i < pages; i++ {
				n.WriteI64(addr(i)+64, int64(1000+i))
			}
		}
		n.Barrier()
		if n.ID() == 0 {
			for i := 0; i < pages; i++ {
				if got := n.ReadI64(addr(i) + 64); got != int64(1000+i) {
					t.Errorf("homed page %d reads %d after the wave, want %d", i, got, 1000+i)
					break
				}
			}
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("window", nil) }); err != nil {
		t.Fatal(err)
	}
	st := sys.Node(0).Stats()
	if st.GCPagesValidated != pages || st.FaultRounds != 0 {
		t.Errorf("home validated %d pages and took %d fault rounds, want %d and 0", st.GCPagesValidated, st.FaultRounds, pages)
	}
	if _, _, served := pageTraffic(t, sys, 0); served[1] != requests {
		t.Errorf("the writer served %d fetch requests, want %d = ⌈%d/%d⌉", served[1], requests, pages, HomeBlockPages)
	}
}
