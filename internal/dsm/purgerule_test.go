package dsm

import (
	"slices"
	"testing"

	"repro/internal/network"
)

// The purge rule (gcPurgePagesLocked) decides, for every page owing a
// notice the floor covers, validate, flush or wait, and only the
// application thread acts on it. This test runs one case at a time on three
// nodes with fixed roles — node 0 PURGES, node 1 HOMES page B, node 2
// WRITES — and two pages: A homed at the purging node, B at the home. The
// purging node holds copies of both, and then owes exactly one covered
// notice, on the case's page; the floor is issued by hand, and its own
// component is the purging node's clock before its own last write, so that
// write stays above it. Each case runs on two sides: the thread side takes
// the floor in one consensus step, and the server side first pushes a
// consensus delta to the purging node, which its protocol server handles
// without purging anything, and then lets the node's next Release take it.
const (
	prPurger = 0
	prHome   = 1
	prWriter = 2
	prLock   = 0 // managed at the purger: its Acquire and Release stay local
)

// purgeRuleCase is one case of the rule, and what the application thread's
// pass does with it.
type purgeRuleCase struct {
	name      string
	onA       bool // the covered notice is on A, homed at the purger (else on B)
	ownWrite  bool // the purger writes B beside the writer: a copy that must be kept
	homeFirst bool // the home runs its first pass before the purger acts

	validated, flushed int64 // pages the pass validates and flushes
	owes               bool  // it leaves the floor owed, waiting for the home
}

func TestGCPurgeRuleBothSides(t *testing.T) {
	cases := []purgeRuleCase{
		{name: "homed-here", onA: true, validated: 1},
		{name: "must-keep", ownWrite: true, homeFirst: true, validated: 1},
		{name: "home-not-purged", owes: true},
		{name: "home-purged", homeFirst: true, flushed: 1},
	}
	for _, tc := range cases {
		for _, server := range []bool{false, true} {
			side := "thread"
			if server {
				side = "server"
			}
			t.Run(tc.name+"/"+side, func(t *testing.T) {
				SetDebugOracle(true)
				defer SetDebugOracle(false)
				sys := New(Config{Procs: 3, GCPressure: 1 << 20})
				base := sys.MallocPage(2 * HomeBlockPages * PageSize)
				a, b := base, base+HomeBlockPages*PageSize
				page := b
				if tc.onA {
					page = a
				}
				pid := PageID(int(page) / PageSize)
				issued, homeDone := make(chan struct{}), make(chan struct{})
				var floor VectorClock
				sys.Register("rule", func(n *Node, _ []byte) {
					if n.homeOf(PageID(int(a)/PageSize)) != prPurger || n.homeOf(PageID(int(b)/PageSize)) != prHome {
						t.Errorf("test premise: A homed at %d, B at %d", n.homeOf(PageID(int(a)/PageSize)), n.homeOf(PageID(int(b)/PageSize)))
					}
					if n.ID() == prWriter {
						n.WriteBytes(a, awWord(0))
						n.WriteBytes(b, awWord(0))
					}
					n.Barrier()
					var own int32
					if n.ID() == prPurger {
						n.ReadBytes(a, make([]byte, 4))
						n.ReadBytes(b, make([]byte, 4))
						n.mu.Lock()
						own = n.vc[n.id]
						n.mu.Unlock()
					}
					n.Barrier() // the reads are over before round 1 overwrites what they read
					switch {
					case n.ID() == prWriter:
						n.WriteBytes(page, awWord(1))
					case n.ID() == prPurger && tc.ownWrite:
						n.WriteBytes(b+64, awWord(1))
					}
					n.Barrier()
					switch n.ID() {
					case prPurger:
						if server {
							n.Acquire(prLock)
						}
						n.mu.Lock()
						floor = n.vc.clone()
						floor[n.id] = own
						n.mu.Unlock()
						issueFloor(sys.acq, floor)
						close(issued)
						if tc.homeFirst {
							<-homeDone
						}
						tc.check(t, n, floor, pid, server)
					case prHome:
						<-issued
						if tc.homeFirst {
							n.thread.gcSyncOnce()
							if !sys.acq.homeCovers(prHome, floor) {
								t.Error("the home's first pass did not publish the floor")
							}
							close(homeDone)
						}
					}
					// An episode finishes whatever the purger left of the floor.
					n.Barrier()
					if n.ID() == prPurger {
						got := make([]byte, 4)
						n.ReadBytes(page, got)
						if !slices.Equal(got, awWord(1)) {
							t.Errorf("after the episode the page reads %v, want %v", got, awWord(1))
						}
					}
				})
				if err := sys.Run(func(n *Node) { n.RunParallel("rule", nil) }); err != nil {
					t.Fatal(err)
				}
				sys.Close()
			})
		}
	}
}

// check runs one side on the purging node — the application thread's
// consensus step, or a consensus push its protocol server handles and then
// the node's next Release — and checks what the thread's pass did.
func (tc *purgeRuleCase) check(t *testing.T, n *Node, floor VectorClock, pid PageID, server bool) {
	t.Helper()
	before := n.Stats()
	co := n.sys.acq
	if server {
		tc.checkPush(t, n, floor, pid)
		n.Release(prLock)
	} else {
		n.thread.gcSyncOnce()
	}
	after := n.Stats()
	purges, epochs := after.GCPurges-before.GCPurges, after.GCAcqEpochs-before.GCAcqEpochs
	validated := after.GCPagesValidated - before.GCPagesValidated
	flushed := after.GCPagesFlushed - before.GCPagesFlushed
	n.mu.Lock()
	owed, lag := n.gcAcqOwed != nil, slices.Clone(n.gcAcqLag)
	n.mu.Unlock()
	co.mu.Lock()
	acked := floor.dominatedBy(co.purged[n.id])
	co.mu.Unlock()
	if purges != 1 || epochs != 1 || validated != tc.validated || flushed != tc.flushed {
		t.Errorf("thread: %d purges, %d epochs, validated %d, flushed %d; want 1, 1, %d, %d",
			purges, epochs, validated, flushed, tc.validated, tc.flushed)
	}
	if owed != tc.owes || acked == tc.owes {
		t.Errorf("thread: owes %v, acknowledged %v; want %v, %v", owed, acked, tc.owes, !tc.owes)
	}
	if tc.owes && !slices.Equal(lag, []int{prHome}) {
		t.Errorf("thread: waits on homes %v, want [%d]", lag, prHome)
	}
}

// checkPush hands the purging node's protocol server a consensus push while
// the node owes the floor, and checks that the server purged nothing: the
// case's page is as it was, no purge is claimed or owed, no epoch counts and
// nothing is acknowledged.
func (tc *purgeRuleCase) checkPush(t *testing.T, n *Node, floor VectorClock, pid PageID) {
	t.Helper()
	type pageLook struct {
		state   pageState
		copy    bool
		notices int
	}
	look := func() pageLook {
		n.mu.Lock()
		defer n.mu.Unlock()
		pg := n.pages[pid]
		return pageLook{pg.state, pg.data != nil, len(pg.missing)}
	}
	was, before := look(), n.Stats()
	var w wbuf
	putTrailer(&w, newVC(n.sys.cfg.Procs), nil)
	n.handleGCSync(&network.Message{From: prWriter, To: n.id, Type: msgGCSync, Payload: w.b})
	after := n.Stats()
	n.mu.Lock()
	claimed, owed := n.gcPurgeVC != nil, n.gcAcqOwed != nil
	n.mu.Unlock()
	n.sys.acq.mu.Lock()
	acked := floor.dominatedBy(n.sys.acq.purged[n.id])
	n.sys.acq.mu.Unlock()
	if is := look(); is != was {
		t.Errorf("server: the push changed page %d from %+v to %+v", pid, was, is)
	}
	if d := [4]int64{after.GCPurges - before.GCPurges, after.GCAcqEpochs - before.GCAcqEpochs,
		after.GCPagesValidated - before.GCPagesValidated, after.GCPagesFlushed - before.GCPagesFlushed}; d != [4]int64{} {
		t.Errorf("server: the push made %d purges, %d epochs, validated %d, flushed %d; want none", d[0], d[1], d[2], d[3])
	}
	if claimed || owed || acked {
		t.Errorf("server: claimed %v, owes %v, acknowledged %v after the push; want all false", claimed, owed, acked)
	}
}
