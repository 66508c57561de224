package dsm

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
)

// At an acquire epoch a foreign page whose home has not purged the floor is
// left alone, and the node finishes — and acknowledges — its purge once that
// home has published (acqEpoch). These tests pin the rule on three nodes
// with fixed roles: node 0, the master and barrier root, is the WAITER;
// node 1 HOMES the one page in play (the first of the second home block);
// node 2 WRITES it, four bytes a round. No trigger fires by pressure, and
// the consensus floor is issued by hand, so every step happens where the
// test puts it. Once the floor is owed the nodes coordinate over host
// channels, never a barrier: a barrier is an episode, and an episode
// finishes an owed floor (TestEpisodeSettlesOwedAcquirePurge).
const (
	awWaiter = 0
	awHome   = 1
	awWriter = 2
)

// awWord is what round r leaves at the start of the page.
func awWord(r int) []byte {
	return []byte{waveFill(r, 0), waveFill(r, 1), waveFill(r, 2), waveFill(r, 3)}
}

// acqWait is the state the fixture hands each test's continuation.
type acqWait struct {
	t     *testing.T
	sys   *System
	a     Addr
	pid   PageID
	floor VectorClock // the owed floor: covers rounds 0-4, not round 5

	homeWrote chan struct{} // closed once the home has written in round 5
	passed    chan struct{} // closed when the waiter lets the home catch up
	caughtUp  chan struct{} // closed once the home has published the floor
}

// issueFloor announces floor as the lock managers would, whatever the
// pressure. The gate must be open.
func issueFloor(co *acqCoord, floor VectorClock) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.baseline.merge(floor)
	co.baseSum = co.baseline.sum()
	co.announced++
}

// fetchReqs is the number of fetch requests sent so far, by anyone.
func (f *acqWait) fetchReqs() int64 {
	m, _ := f.sys.Switch().Stats().ByType(msgFetchReq)
	return m
}

// acked reports whether the coordinator holds node id's acknowledgment of
// the owed floor.
func (f *acqWait) acked(id int) bool {
	co := f.sys.acq
	co.mu.Lock()
	defer co.mu.Unlock()
	return f.floor.dominatedBy(co.purged[id])
}

// round is one write by the writer, published by a barrier.
func (f *acqWait) round(n *Node, r int) {
	if n.ID() == awWriter {
		n.WriteBytes(f.a, awWord(r))
	}
	n.Barrier()
}

// homeCatchesUp runs the home's own first pass, which until now it has been
// parked for: it validates its page to the floor and publishes its registry
// entry. The waiter resumes once it has; the writer takes no part.
func (f *acqWait) homeCatchesUp(n *Node) {
	switch n.ID() {
	case awHome:
		select {
		case <-f.passed:
		case <-f.sys.Done():
			return
		}
		n.c0.gcSyncOnce()
		if !f.acked(awHome) {
			f.t.Error("the home, which waits for nobody, did not acknowledge its own first pass")
		}
		close(f.caughtUp)
	case awWaiter:
		close(f.passed)
		<-f.caughtUp
	}
}

// acqWaitFixture runs rest on every node once the waiter has taken the
// first pass of an acquire epoch whose floor the page's home lags:
//
//	rounds 0-3   the waiter reads the page after round 3, so its copy
//	             reflects rounds 0-3
//	round 4      the waiter's clock after it is the floor
//	round 5      one more notice: the tail the floor does not cover. With
//	             homeWrites the home writes the page too (64 bytes on), so
//	             the tail is two concurrent notices and no single writer's
//	             copy can stand in for it (planFaultLocked's squash). The
//	             writer waits for the home's write: a departure sent after
//	             the writer's next arrival reached the root would carry the
//	             writer's round-5 interval early, and the home's would
//	             then cover it.
//	first pass   on the waiter, the home parked on a host channel
//
// and checks what that pass must leave behind: nothing fetched anywhere,
// nothing validated, nothing flushed, the copy and every notice in place,
// the floor owed and unacknowledged.
func acqWaitFixture(t *testing.T, homeWrites bool, rest func(f *acqWait, n *Node)) *System {
	t.Helper()
	SetDebugOracle(true)
	defer SetDebugOracle(false)
	sys := New(Config{Procs: 3, GCPressure: 1 << 20})
	f := &acqWait{t: t, sys: sys,
		homeWrote: make(chan struct{}), passed: make(chan struct{}), caughtUp: make(chan struct{})}
	f.a = sys.MallocPage(2*HomeBlockPages*PageSize) + HomeBlockPages*PageSize
	f.pid = PageID(int(f.a) / PageSize)
	sys.Register("wait", func(n *Node, _ []byte) {
		if !sys.Node(awHome).isHome(f.pid) {
			t.Errorf("test premise: page %d is homed at node %d", f.pid, n.homeOf(f.pid))
		}
		for r := 0; r <= 3; r++ {
			f.round(n, r)
		}
		if n.ID() == awWaiter {
			n.ReadBytes(f.a, make([]byte, 4))
		}
		n.Barrier() // the read is over before round 4 overwrites what it read
		f.round(n, 4)
		if n.ID() == awWaiter {
			n.mu.Lock()
			f.floor = n.vc.clone()
			n.mu.Unlock()
		}
		n.Barrier() // the floor is read before a round-5 arrival can raise the root's clock
		if homeWrites {
			switch n.ID() {
			case awHome:
				n.WriteBytes(f.a+64, awWord(5))
				close(f.homeWrote)
			case awWriter:
				<-f.homeWrote
			}
		}
		f.round(n, 5)
		if n.ID() == awWaiter {
			if e := sys.GCSummary().Epochs; e != 0 {
				t.Errorf("test premise: %d episodes collected, want none", e)
			}
			tail := 1
			if homeWrites {
				tail = 2
			}
			before, reqs := n.Stats(), f.fetchReqs()
			issueFloor(sys.acq, f.floor)
			n.c0.gcSyncOnce()
			after := n.Stats()
			if got := f.fetchReqs() - reqs; got != 0 {
				t.Errorf("the first pass sent %d fetch requests for a page nobody asked for, want 0", got)
			}
			if after.GCAcqEpochs != before.GCAcqEpochs+1 || after.GCPagesValidated != before.GCPagesValidated ||
				after.GCPagesFlushed != before.GCPagesFlushed || after.GCWait != before.GCWait {
				t.Errorf("first pass: %d epochs, validated %d, flushed %d, waited %d ns; want 1, 0, 0, 0",
					after.GCAcqEpochs-before.GCAcqEpochs, after.GCPagesValidated-before.GCPagesValidated,
					after.GCPagesFlushed-before.GCPagesFlushed, after.GCWait-before.GCWait)
			}
			n.mu.Lock()
			pg := n.pageFor(f.pid)
			// (At least: a writer already past the next barrier's arrival may
			// have delivered one more.)
			if pg.data == nil || !owesCovered(pg, f.floor) || len(pg.missing) < 1+tail {
				t.Errorf("the waiting page was touched: copy=%v, owes under the floor=%v, %d notices; want its copy and at least %d notices",
					pg.data != nil, owesCovered(pg, f.floor), len(pg.missing), 1+tail)
			}
			if n.gcAcqOwed == nil || !slices.Equal(n.gcAcqOwed, f.floor) || !slices.Equal(n.gcAcqLag, []int{awHome}) {
				t.Errorf("owed floor %v waiting for %v, want %v waiting for [%d]", n.gcAcqOwed, n.gcAcqLag, f.floor, awHome)
			}
			n.mu.Unlock()
			if f.acked(awWaiter) {
				t.Error("the waiter acknowledged a floor it has not finished purging")
			}
			if !sys.purged.covers(awWaiter, f.floor) {
				t.Error("the waiter's own registry entry must be published by the first pass: its homed pages never wait")
			}
		}
		rest(f, n)
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("wait", nil) }); err != nil {
		t.Fatal(err)
	}
	if d := OracleDiverges(); d != 0 {
		t.Errorf("%d reads diverged from the shadow memory", d)
	}
	return sys
}

// TestAcquireEpochLeavesLaggingHomePageAlone: the first pass (checked by
// the fixture) fetches nothing and drops nothing. Once the home has
// published, the waiter's next consensus step flushes the page without a
// message and acknowledges; a read then rebuilds it from the home's page
// and the two notices the floor never covered. Validating in the
// lagging-home case fails the fixture's first-pass checks.
func TestAcquireEpochLeavesLaggingHomePageAlone(t *testing.T) {
	acqWaitFixture(t, true, func(f *acqWait, n *Node) {
		f.homeCatchesUp(n)
		if n.ID() != awWaiter {
			return
		}
		before, reqs := n.Stats(), f.fetchReqs()
		n.c0.gcSyncOnce()
		after := n.Stats()
		if got := f.fetchReqs() - reqs; got != 0 {
			t.Errorf("the finishing pass sent %d fetch requests, want 0", got)
		}
		if after.GCPagesFlushed != before.GCPagesFlushed+1 || after.GCPagesValidated != before.GCPagesValidated ||
			after.GCAcqEpochs != before.GCAcqEpochs {
			t.Errorf("finishing pass flushed %d, validated %d, counted %d epochs; want 1, 0, 0",
				after.GCPagesFlushed-before.GCPagesFlushed, after.GCPagesValidated-before.GCPagesValidated,
				after.GCAcqEpochs-before.GCAcqEpochs)
		}
		n.mu.Lock()
		pg := n.pageFor(f.pid)
		if pg.data != nil || !pg.refetch || len(pg.missing) != 2 || n.gcAcqOwed != nil {
			t.Errorf("after the finishing pass: copy=%v refetch=%v notices=%d owed=%v; want a flushed copy owing its tail, nothing owed",
				pg.data != nil, pg.refetch, len(pg.missing), n.gcAcqOwed)
		}
		n.mu.Unlock()
		if !f.acked(awWaiter) {
			t.Error("the finished purge was not acknowledged")
		}
		got := make([]byte, 68)
		n.ReadBytes(f.a, got)
		read := n.Stats()
		if !bytes.Equal(got[:4], awWord(5)) || !bytes.Equal(got[64:], awWord(5)) {
			t.Errorf("rebuilt copy reads %v and %v, want round 5's %v from both writers", got[:4], got[64:], awWord(5))
		}
		if read.PageFetches != after.PageFetches+1 || read.DiffsApplied != after.DiffsApplied+2 || read.FaultRounds != after.FaultRounds+1 {
			t.Errorf("the read took %d whole pages, %d diffs, %d rounds; want the home's page and the two-notice tail in one round",
				read.PageFetches-after.PageFetches, read.DiffsApplied-after.DiffsApplied, read.FaultRounds-after.FaultRounds)
		}
	})
}

// TestAcquireEpochWaitingPageFaultsNormally: a read of the waiting page is
// an ordinary fault — one request to the writer for the two diffs owed, as
// one merged item, to the nanosecond — and the finishing pass then finds nothing owed on the
// page and leaves it where the fault put it.
func TestAcquireEpochWaitingPageFaultsNormally(t *testing.T) {
	var took sim.Time
	var seqs [2]int
	var pid PageID
	sys := acqWaitFixture(t, false, func(f *acqWait, n *Node) {
		if n.ID() == awWaiter {
			pid = f.pid
			n.mu.Lock()
			for i, m := range n.pageFor(f.pid).missing {
				seqs[i] = m.seq
			}
			n.mu.Unlock()
			reqs := f.fetchReqs()
			got := make([]byte, 4)
			t0 := n.Now()
			n.ReadBytes(f.a, got)
			took = n.Now() - t0
			if !bytes.Equal(got, awWord(5)) || f.fetchReqs() != reqs+1 {
				t.Errorf("waiting page read %v in %d requests, want round 5's %v in one", got, f.fetchReqs()-reqs, awWord(5))
			}
		}
		f.homeCatchesUp(n)
		if n.ID() != awWaiter {
			return
		}
		before, reqs := n.Stats(), f.fetchReqs()
		n.c0.gcSyncOnce()
		n.ReadBytes(f.a, make([]byte, 4))
		after := n.Stats()
		if !f.acked(awWaiter) {
			t.Error("the finished purge was not acknowledged")
		}
		if after.GCPagesFlushed != before.GCPagesFlushed || after.GCPagesValidated != before.GCPagesValidated ||
			after.ReadFaults != before.ReadFaults || f.fetchReqs() != reqs {
			t.Errorf("the finishing pass touched a page that owed nothing: flushed %d, validated %d, then %d faults, %d requests",
				after.GCPagesFlushed-before.GCPagesFlushed, after.GCPagesValidated-before.GCPagesValidated,
				after.ReadFaults-before.ReadFaults, f.fetchReqs()-reqs)
		}
	})
	// Both diffs are paid as the request is served: rounds 4 and 5 each
	// still owe the modelled node its encode (page.unpaid), paid at the
	// diff's first serve. Each diff is one word at the page start. One
	// writer made both, back to back in causal order, so they travel as one
	// item: the writer folds them, charged one apply of each, and the reply
	// carries the one-word merged diff, which the waiter applies once.
	plat := sys.Platform()
	word := runBytes(0, 4)
	req, rep := fetchItemsWireLen(fetchItem{pid: pid, seq: min(seqs[0], seqs[1]), later: []int{max(seqs[0], seqs[1])},
		data: make([]byte, word)})
	want := plat.FaultOverhead + plat.UDP.Latency(req) + plat.RequestService +
		2*(plat.DiffCreate+sim.Time(float64(PageSize)*plat.DiffPerByte)) +
		2*(plat.DiffApply+sim.Time(float64(word)*plat.DiffApplyPerByte)) + plat.UDP.Latency(rep) +
		plat.DiffApply + sim.Time(4*plat.DiffApplyPerByte)
	if took != want {
		t.Errorf("the fault on the waiting page took %d ns, want the one-page diff fetch %d", took, want)
	}
}

// TestEpisodeSettlesOwedAcquirePurge: the floor the waiter owes is finished
// by the next barrier, an episode that announces nothing (its gate is
// closed: the floor is unacknowledged). Every node handles the owed floor
// there — the home validates its page, the waiter blocks until the home
// has published and then flushes its copy without a message — and each
// node's acknowledgment is in before its own Barrier returns. (The root's
// return does not wait for the other nodes' sides of the episode, which
// run after their departures arrive.) By the next barrier every node has
// acknowledged.
func TestEpisodeSettlesOwedAcquirePurge(t *testing.T) {
	acqWaitFixture(t, false, func(f *acqWait, n *Node) {
		var before NodeStats
		if n.ID() == awWaiter {
			before = n.Stats()
		}
		f.round(n, 6)
		if !f.acked(n.ID()) {
			t.Errorf("node %d left the episode without acknowledging the owed floor", n.ID())
		}
		if n.ID() == awWaiter {
			after := n.Stats()
			if after.GCPagesFlushed != before.GCPagesFlushed+1 || after.GCPagesValidated != before.GCPagesValidated ||
				after.GCWaveMsgs != before.GCWaveMsgs || after.GCEpochs != before.GCEpochs {
				t.Errorf("episode with an owed floor: flushed %d, validated %d, %d wave messages, %d episode epochs; want 1, 0, 0, 0",
					after.GCPagesFlushed-before.GCPagesFlushed, after.GCPagesValidated-before.GCPagesValidated,
					after.GCWaveMsgs-before.GCWaveMsgs, after.GCEpochs-before.GCEpochs)
			}
			n.mu.Lock()
			pg := n.pageFor(f.pid)
			if owesCovered(pg, f.floor) || pg.data != nil || n.gcAcqOwed != nil {
				t.Errorf("after the episode: owes under the floor=%v, copy=%v, owed=%v; want a flushed copy, nothing owed",
					owesCovered(pg, f.floor), pg.data != nil, n.gcAcqOwed)
			}
			n.mu.Unlock()
		}
		f.round(n, 7) // the waiter has read its counters before anyone faults
		if n.ID() == awWaiter {
			for id := 0; id < 3; id++ {
				if !f.acked(id) {
					t.Errorf("node %d has not acknowledged the owed floor by the next barrier", id)
				}
			}
		}
		got := make([]byte, 4)
		n.ReadBytes(f.a, got)
		if !bytes.Equal(got, awWord(7)) {
			t.Errorf("node %d reads %v after the episode, want round 7's %v", n.ID(), got, awWord(7))
		}
	})
}

// TestEpisodeSettleAsksForNothingTheEpisodeFrees: once an episode has
// finished the owed floor (TestEpisodeSettlesOwedAcquirePurge), a second
// hand-issued floor, finished by a later barrier the same way, frees every
// record the first retired; the reads after it ask for nothing already
// freed (serveDiffLocked's retired-interval tripwire would fail the run).
func TestEpisodeSettleAsksForNothingTheEpisodeFrees(t *testing.T) {
	var retiredBefore int64
	sys := acqWaitFixture(t, false, func(f *acqWait, n *Node) {
		f.round(n, 6) // finishes the first floor
		f.round(n, 7) // every node is past round 6's episode: the gate is open
		if n.ID() == awWaiter {
			for id := 0; id < 3; id++ {
				if !f.acked(id) {
					t.Errorf("test premise: node %d has not acknowledged the first floor", id)
				}
			}
			retiredBefore = f.sys.Node(awWriter).Stats().IntervalsRetired
			n.mu.Lock()
			second := n.vc.clone()
			n.mu.Unlock()
			issueFloor(f.sys.acq, second)
		}
		f.round(n, 8) // finishes the second floor, freeing what the first retired
		got := make([]byte, 4)
		n.ReadBytes(f.a, got)
		if !bytes.Equal(got, awWord(8)) {
			t.Errorf("node %d reads %v after the episodes, want round 8's %v", n.ID(), got, awWord(8))
		}
	})
	if retired := sys.Node(awWriter).Stats().IntervalsRetired - retiredBefore; retired < 5 {
		t.Errorf("the writer freed %d of its records at the second floor, want the first floor's 5", retired)
	}
}

// TestAcquireEpochWaitsWithoutScanning: waiting costs registry reads, not
// page scans. While its home lags, the fixture's waiter takes and releases
// a lock fifty times — a hundred consensus steps — without one more walk
// of its work list; the step after the home has published walks it once
// and finishes. On the four-node ring, whatever the schedule, a node that
// runs ~140 synchronization operations across a dozen acquire epochs walks
// its work list at most twice an epoch: the first pass and the finishing
// one.
func TestAcquireEpochWaitsWithoutScanning(t *testing.T) {
	acqWaitFixture(t, false, func(f *acqWait, n *Node) {
		var waiting NodeStats
		if n.ID() == awWaiter {
			before := n.Stats()
			for i := 0; i < 50; i++ {
				n.Acquire(7)
				n.Release(7)
			}
			waiting = n.Stats()
			if waiting.GCPurges != before.GCPurges || f.acked(awWaiter) {
				t.Errorf("%d synchronization operations while the home lags walked the work list %d times (acknowledged: %v), want 0",
					waiting.LockAcquires-before.LockAcquires, waiting.GCPurges-before.GCPurges, f.acked(awWaiter))
			}
		}
		f.homeCatchesUp(n)
		if n.ID() == awWaiter {
			n.Acquire(7)
			n.Release(7)
			if got := n.Stats().GCPurges - waiting.GCPurges; got != 1 || !f.acked(awWaiter) {
				t.Errorf("once the home had published, two more consensus steps walked the work list %d times (acknowledged: %v), want once",
					got, f.acked(awWaiter))
			}
		}
	})

	sys := acqRingWorkload(t, Config{Procs: 4, GCPressure: 16}, 48)
	for i := 0; i < 4; i++ {
		st := sys.Node(i).Stats()
		if st.GCAcqEpochs == 0 || st.LockAcquires+st.SemaOps < 10*st.GCAcqEpochs {
			t.Fatalf("test premise: node %d ran %d acquire epochs over %d synchronization operations",
				i, st.GCAcqEpochs, st.LockAcquires+st.SemaOps)
		}
		if max := 2 * (st.GCAcqEpochs + st.GCEpochs); st.GCPurges > max {
			t.Errorf("node %d walked its work list %d times for %d acquire epochs and %d episodes, want at most %d",
				i, st.GCPurges, st.GCAcqEpochs, st.GCEpochs, max)
		}
	}
}
