package dsm

import (
	"slices"
	"testing"
)

// The purge rule (gcClassifyLocked) decides, for every page owing a notice
// the floor covers, validate, flush or wait, and both purges act on its
// verdict: the application thread's, which validates, flushes and waits,
// and the protocol server's, which runs an epoch only when the verdict is
// all flushes. This test runs one case at a time on three nodes with fixed
// roles — node 0 PURGES, node 1 HOMES page B, node 2 WRITES — and two
// pages: A homed at the purging node, B at the home. The purging node
// holds copies of both, and then owes exactly one covered notice, on the
// case's page; the floor is issued by hand, and its own component is the
// purging node's clock before its own last write, so that write stays
// above it.
const (
	prPurger = 0
	prHome   = 1
	prWriter = 2
)

// purgeRuleCase is one case of the rule, and what each side does with it.
type purgeRuleCase struct {
	name      string
	onA       bool // the covered notice is on A, homed at the purger (else on B)
	ownWrite  bool // the purger writes B beside the writer: a copy that must be kept
	homeFirst bool // the home runs its first pass before the purger acts

	validate, flush, wait int // the verdicts: pages to validate, flush, and leave waiting

	threadValidated, threadFlushed int64 // the application thread's pass
	threadOwes                     bool  // it leaves the floor owed, waiting for the home
	serverRuns                     bool  // the server takes the epoch, else declines it untouched
	serverFlushed                  int64
}

func TestGCPurgeRuleBothSides(t *testing.T) {
	cases := []purgeRuleCase{
		{name: "homed-here", onA: true, validate: 1, threadValidated: 1},
		{name: "must-keep", ownWrite: true, homeFirst: true, validate: 1, threadValidated: 1},
		{name: "home-not-purged", wait: 1, threadOwes: true},
		{name: "home-purged", homeFirst: true, flush: 1, threadFlushed: 1, serverRuns: true, serverFlushed: 1},
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

// check checks the rule's verdict on the purging node, then runs one
// side's purge — the application thread's pass, or the protocol server's
// attempt — and checks what it did.
func (tc *purgeRuleCase) check(t *testing.T, n *Node, floor VectorClock, pid PageID, server bool) {
	t.Helper()
	var count [3]int
	n.mu.Lock()
	n.gcClassifyLocked(floor, func(pg *page, v purgeVerdict) bool {
		count[v]++
		if pg.id != pid {
			t.Errorf("verdict %d on page %d, want one on page %d only", v, pg.id, pid)
		}
		return true
	})
	n.mu.Unlock()
	if count != [3]int{tc.validate, tc.flush, tc.wait} {
		t.Errorf("verdicts: validate %d, flush %d, wait %d; want %d, %d, %d",
			count[purgeValidate], count[purgeFlush], count[purgeWait], tc.validate, tc.flush, tc.wait)
	}
	before := n.Stats()
	co := n.sys.acq
	if server {
		n.gcFloorAttemptServer(n.interruptVC())
	} else {
		n.thread.gcSyncOnce()
	}
	after := n.Stats()
	purges, epochs := after.GCPurges-before.GCPurges, after.GCAcqEpochs-before.GCAcqEpochs
	validated := after.GCPagesValidated - before.GCPagesValidated
	flushed := after.GCPagesFlushed - before.GCPagesFlushed
	n.mu.Lock()
	owed, claimed, lag := n.gcAcqOwed != nil, n.gcPurgeVC != nil, slices.Clone(n.gcAcqLag)
	n.mu.Unlock()
	co.mu.Lock()
	acked := floor.dominatedBy(co.purged[n.id])
	co.mu.Unlock()
	if server {
		wantEpochs := int64(0)
		if tc.serverRuns {
			wantEpochs = 1
		}
		// GCPurges counts the application thread's passes only.
		if purges != 0 || epochs != wantEpochs || validated != 0 || flushed != tc.serverFlushed {
			t.Errorf("server: %d purges, %d epochs, validated %d, flushed %d; want 0, %d, 0, %d",
				purges, epochs, validated, flushed, wantEpochs, tc.serverFlushed)
		}
		if claimed != tc.serverRuns || acked != tc.serverRuns || owed {
			t.Errorf("server: claimed %v, acknowledged %v, owes %v; want %v, %v, false",
				claimed, acked, owed, tc.serverRuns, tc.serverRuns)
		}
		return
	}
	if purges != 1 || epochs != 1 || validated != tc.threadValidated || flushed != tc.threadFlushed {
		t.Errorf("thread: %d purges, %d epochs, validated %d, flushed %d; want 1, 1, %d, %d",
			purges, epochs, validated, flushed, tc.threadValidated, tc.threadFlushed)
	}
	if owed != tc.threadOwes || acked == tc.threadOwes {
		t.Errorf("thread: owes %v, acknowledged %v; want %v, %v", owed, acked, tc.threadOwes, !tc.threadOwes)
	}
	if tc.threadOwes && !slices.Equal(lag, []int{prHome}) {
		t.Errorf("thread: waits on homes %v, want [%d]", lag, prHome)
	}
}
