package dsm

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
)

// The collector's validation wave goes through the fault path's exchange
// (Client.fetchLocked) and installs through applyFaultLocked. These tests pin
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
	sys := New(Config{Procs: P, GCPressure: 1})
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
	b := sys.Report()
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
			items[i] = fetchItem{pid: homed[i], seq: 0, data: make([]byte, runBytes(0, PageSize))}
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

// TestFlushedCopyRebuildsInOneRound: a copy the collector flushed is
// rebuilt by its next fault from its home's whole page and the tail of
// notices the flush kept, in ONE exchange: both requests leave together and
// the round costs the later of the two arrivals (or the inbound-link floor),
// not a page round followed by a diff round. Node 2 writes the page every
// round and node 0 never reads it until the end; at GCPressure 4 and one
// interval a round the episode after round 3 collects, so node 0's copy is
// flushed there. In round 4 the home, node 1, writes the page too (64 bytes
// on), so the copy owes two concurrent notices and no single writer's copy
// can stand in for them (planFaultLocked's squash). Neither writer is the
// barrier root, which could incorporate the other's arrival before closing
// its own interval, and node 2 writes round 4 only after the home has: a
// departure sent after node 2's next arrival reached the root would carry
// its interval early, and the home's would then cover it.
func TestFlushedCopyRebuildsInOneRound(t *testing.T) {
	SetDebugOracle(true)
	defer SetDebugOracle(false)
	const P, rounds = 3, 5
	const reader, home, writer = 0, 1, 2
	sys := New(Config{Procs: P, GCPressure: 4})
	a := sys.MallocPage(2*HomeBlockPages*PageSize) + HomeBlockPages*PageSize
	pid := PageID(int(a) / PageSize)
	word := func(r int) []byte { return []byte{waveFill(r, 0), waveFill(r, 1), waveFill(r, 2), waveFill(r, 3)} }
	var took sim.Time
	var seqs [P]int     // of the home's and the writer's notices
	var homePage []byte // what the home serves: its copy as the read starts
	var before, after NodeStats
	var servedBefore, served [P]int64
	homeWrote := make(chan struct{})
	sys.Register("rebuild", func(n *Node, _ []byte) {
		for r := 0; r < rounds; r++ {
			last := r == rounds-1
			if n.ID() == home && last {
				n.WriteBytes(a+64, word(r))
				close(homeWrote)
			}
			if n.ID() == writer {
				if last {
					<-homeWrote
				}
				n.WriteBytes(a, word(r))
			}
			n.Barrier()
		}
		// Every node has taken round 4's departure — invalidating its copy
		// and encoding the diff it owed — before the read asks for it.
		n.Barrier()
		if n.ID() != reader {
			return
		}
		n.mu.Lock()
		pg := n.pageFor(pid)
		if pg.data != nil || !pg.refetch || len(pg.missing) != 2 {
			t.Errorf("test premise: want a flushed copy owing round %d's two notices; have data=%v refetch=%v missing=%d",
				rounds-1, pg.data != nil, pg.refetch, len(pg.missing))
			n.mu.Unlock()
			return
		}
		for _, m := range pg.missing {
			seqs[m.creator] = m.seq
		}
		n.mu.Unlock()
		h := n.sys.Node(home)
		h.mu.Lock()
		homePage = bytes.Clone(h.pageFor(pid).data)
		h.mu.Unlock()
		for i := range served {
			servedBefore[i] = n.sys.Node(i).Stats().Interrupts
		}
		before = n.Stats()
		got := make([]byte, 68)
		t0 := n.Now()
		n.ReadBytes(a, got)
		took = n.Now() - t0
		after = n.Stats()
		for i := range served {
			served[i] = n.sys.Node(i).Stats().Interrupts - servedBefore[i]
		}
		if !bytes.Equal(got[:4], word(rounds-1)) || !bytes.Equal(got[64:], word(rounds-1)) {
			t.Errorf("rebuilt copy reads %v and %v, want the last round's %v from both writers", got[:4], got[64:], word(rounds-1))
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("rebuild", nil) }); err != nil {
		t.Fatal(err)
	}
	if d := OracleDiverges(); d != 0 {
		t.Errorf("%d reads diverged from the shadow memory", d)
	}
	if g := sys.GCSummary(); g.Epochs != 1 {
		t.Errorf("test premise: %d episodes collected, want round 3's alone", g.Epochs)
	}
	if after.FaultRounds-before.FaultRounds != 1 || after.PageFetches-before.PageFetches != 1 ||
		after.DiffsApplied-before.DiffsApplied != 2 {
		t.Errorf("the read took %d rounds for %d whole pages and %d diffs; want 1, 1, 2",
			after.FaultRounds-before.FaultRounds, after.PageFetches-before.PageFetches,
			after.DiffsApplied-before.DiffsApplied)
	}
	if served != [P]int64{0, 1, 1} {
		t.Errorf("requests served per node %v, want [0 1 1]: one each from the home and the writer", served)
	}
	// The home is asked for its page and its own diff, the writer for its
	// diff; both diffs were encoded when the other's notice invalidated the
	// writer's copy. The home's word lies 64 bytes into the page, the
	// writer's at its start. The page crosses as its runs against zeros,
	// installed like a diff.
	plat := sys.Platform()
	item := func(creator, gap int) fetchItem {
		return fetchItem{pid: pid, seq: seqs[creator], data: make([]byte, runBytes(gap, 4))}
	}
	hreq, hrep := fetchItemsWireLen(fetchItem{pid: pid, seq: -1, data: homePage}, item(home, 64))
	fromHome := plat.UDP.Latency(hreq) + plat.RequestService + plat.PageCopy + plat.UDP.Latency(hrep)
	wreq, wrep := fetchItemsWireLen(item(writer, 0))
	fromWriter := plat.UDP.Latency(wreq) + plat.RequestService + plat.UDP.Latency(wrep)
	floor := 2*plat.UDP.OneWay + sim.Time(float64(hrep+wrep)*plat.UDP.PerByteNS)
	apply := pageInstall(plat, homePage) + 2*(plat.DiffApply+sim.Time(4*plat.DiffApplyPerByte))
	if want := plat.FaultOverhead + sim.Max(sim.Max(fromHome, fromWriter), floor) + apply; took != want {
		t.Errorf("rebuilding fault took %d ns, want one round = %d (a page round then a diff round: %d)",
			took, want, plat.FaultOverhead+fromHome+fromWriter+apply)
	}
}

// TestGCWaveWindow: a wave owing one source hundreds of requests asks for
// everything, once: node 0 validates 260 × HomeBlockPages − 3 homed pages
// node 1 wrote, and reads back what was written.
func TestGCWaveWindow(t *testing.T) {
	const requests = 260
	const pages = requests*HomeBlockPages - 3 // homed at node 0
	sys := New(Config{Procs: 2, GCPressure: 1})
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
