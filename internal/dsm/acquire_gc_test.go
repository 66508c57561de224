package dsm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// acqRingWorkload is the acquire-GC exercise fixture: one parallel region
// with no barriers, in which each node owns one page of a shared array,
// bumps a lock-protected global counter, and hands a semaphore ring token
// to its successor each round — the critical-section and pipeline
// patterns of TSP/QSORT/Sweep3D. It returns the finished system; final
// contents are deterministic (single-writer pages plus a commutative
// counter), so callers can assert them exactly.
func acqRingWorkload(t *testing.T, cfg Config, rounds int) *System {
	t.Helper()
	return acqRing(t, New(cfg), rounds)
}

// acqRing runs acqRingWorkload's program on sys.
func acqRing(t *testing.T, sys *System, rounds int) *System {
	t.Helper()
	procs := sys.cfg.Procs
	arr := sys.MallocPage(procs * PageSize)
	ctr := sys.MallocPage(8)
	sys.Register("ring", func(n *Node, _ []byte) {
		me := n.ID()
		succ := (me + 1) % procs
		for r := 0; r < rounds; r++ {
			if r > 0 {
				n.SemaWait(200 + me)
			}
			for w := 0; w < 4; w++ {
				n.WriteI64(arr+Addr(me*PageSize+8*w*61), int64(r+1))
			}
			n.Acquire(1)
			n.WriteI64(ctr, n.ReadI64(ctr)+1)
			n.Release(1)
			if r%5 == 4 {
				// Periodic peer reads keep copies of every page alive so
				// collections actually find stale state to purge.
				var s int64
				for p := 0; p < procs; p++ {
					s += n.ReadI64(arr + Addr(p*PageSize))
				}
				_ = s
			}
			n.Compute(64)
			n.SemaSignal(200 + succ)
		}
	})
	if err := sys.Run(func(n *Node) {
		n.RunParallel("ring", nil)
		if got := n.ReadI64(ctr); got != int64(rounds*procs) {
			t.Errorf("counter = %d, want %d", got, rounds*procs)
		}
		for o := 0; o < procs; o++ {
			for w := 0; w < 4; w++ {
				if got := n.ReadI64(arr + Addr(o*PageSize+8*w*61)); got != int64(rounds) {
					t.Errorf("page %d word %d = %d, want %d", o, w, got, rounds)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAcquireGCRetiresWithoutBarriers is the load-bearing claim of the
// consensus trigger: a program that synchronizes exclusively through locks
// and semaphores — which the episode trigger can never collect mid-region —
// still announces epochs, retires interval records, and releases
// twins/diffs when retirable pressure crosses GCPressure.
func TestAcquireGCRetiresWithoutBarriers(t *testing.T) {
	sys := acqRingWorkload(t, Config{Procs: 4, GCPressure: 16}, 48)
	st := sys.TotalStats()
	if st.GCAcqEpochs == 0 {
		t.Fatal("no acquire epochs processed")
	}
	if st.IntervalsRetired == 0 {
		t.Error("acquire epochs retired no interval records")
	}
	g := sys.GCSummary()
	if g.AcqEpochs == 0 {
		t.Error("coordinator announced no acquire epochs")
	}
	if g.Epochs > 2 {
		// Only the fork boundary provides barrier/fork episodes here.
		t.Errorf("episode trigger announced %d epochs in a barrier-free region", g.Epochs)
	}

	off := acqRingWorkload(t, Config{Procs: 4, DisableGC: true}, 48).TotalStats()
	if off.GCAcqEpochs != 0 || off.IntervalsRetired != 0 {
		t.Errorf("acquire GC disabled still collected: epochs=%d retired=%d",
			off.GCAcqEpochs, off.IntervalsRetired)
	}
	if st.PeakIntervalChain >= off.PeakIntervalChain {
		t.Errorf("acquire GC peak chain (%d) not below disabled (%d)",
			st.PeakIntervalChain, off.PeakIntervalChain)
	}
}

// TestAcquireGCBoundedChain pins the acceptance criterion at the protocol
// level: with the consensus trigger on, the peak retained interval chain is
// bounded by the pressure threshold (plus the backpressure slack), NOT by
// the run length — quadrupling the rounds must not grow it — while with
// the collector off it grows with the run.
func TestAcquireGCBoundedChain(t *testing.T) {
	cfg := Config{Procs: 4, GCPressure: 16}
	short := acqRingWorkload(t, cfg, 32).TotalStats()
	long := acqRingWorkload(t, cfg, 128).TotalStats()
	if long.PeakIntervalChain > short.PeakIntervalChain+8 {
		t.Errorf("peak chain grew with run length under acquire GC: 32 rounds -> %d, 128 rounds -> %d",
			short.PeakIntervalChain, long.PeakIntervalChain)
	}
	if limit := int64(8 * 16); long.PeakIntervalChain > limit {
		// 4x pressure plus drift between release-side spin points.
		t.Errorf("peak chain %d above the backpressure bound %d", long.PeakIntervalChain, limit)
	}
	offLong := acqRingWorkload(t, Config{Procs: 4, DisableGC: true}, 128).TotalStats()
	if offLong.PeakIntervalChain <= 2*long.PeakIntervalChain {
		t.Errorf("acquire GC off peak chain (%d) not well above on (%d)",
			offLong.PeakIntervalChain, long.PeakIntervalChain)
	}
}

// TestAcquireGCRandomizedInterleavings is the archetype property test:
// for random plans of lock-protected read-modify-writes, scattered
// single-writer writes, and semaphore handoffs, the final shared-memory
// contents with the acquire collector on (at minimal pressure) must equal
// the GC-off contents word for word — the collector, its consensus pushes,
// and the per-page validate-vs-flush choice are invisible to the
// computation under any goroutine interleaving. Every page of a plan lies
// in node 0's home block, so a copy validated on any other node went
// through the NON-home validation wave — a copy that must be kept (one
// whose home lags the floor waits instead): some plan must reach it.
func TestAcquireGCRandomizedInterleavings(t *testing.T) {
	var foreignValidated int64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const P = 4
		words := 64 + rng.Intn(192) // spans 1-3 pages at 8B words
		rounds := 4 + rng.Intn(10)
		nlocks := 1 + rng.Intn(3)
		// owner[w] is the (fixed) writer of word w: each word has one
		// writer for the whole run, so the final contents are
		// schedule-free, while pages remain multi-writer (adjacent words
		// belong to different nodes — the QSORT false-sharing pattern).
		// The ring only bounds round skew to P, so a per-round owner
		// rotation would make same-word writes of nearby rounds racy.
		owner := make([]int, words)
		for w := range owner {
			owner[w] = rng.Intn(P)
		}
		run := func(cfg Config) ([]int64, int64, bool) {
			sys := New(cfg)
			base := sys.MallocPage(8 * words)
			ctrs := sys.MallocPage(8 * nlocks)
			if int(ctrs)/PageSize >= HomeBlockPages {
				t.Fatal("test premise: the plan's pages outgrew node 0's home block")
			}
			sys.Register("plan", func(n *Node, _ []byte) {
				me := n.ID()
				succ := (me + 1) % P
				for r := 0; r < rounds; r++ {
					if r > 0 {
						n.SemaWait(300 + me)
					}
					for w, o := range owner {
						if o == me {
							n.WriteI64(base+Addr(8*w), int64(r*1000+o*10+w%7))
						}
					}
					lk := r % nlocks
					n.Acquire(10 + lk)
					n.WriteI64(ctrs+Addr(8*lk), n.ReadI64(ctrs+Addr(8*lk))+int64(me+1))
					n.Release(10 + lk)
					n.SemaSignal(300 + succ)
				}
			})
			out := make([]int64, words)
			var csum int64
			err := sys.Run(func(n *Node) {
				n.RunParallel("plan", nil)
				for w := range out {
					out[w] = n.ReadI64(base + Addr(8*w))
				}
				for lk := 0; lk < nlocks; lk++ {
					csum += n.ReadI64(ctrs + Addr(8*lk))
				}
			})
			for i := 1; i < P; i++ {
				foreignValidated += sys.Node(i).Stats().GCPagesValidated
			}
			return out, csum, err == nil
		}
		ref, refSum, ok := run(Config{Procs: P, DisableGC: true})
		if !ok {
			return false
		}
		// Every lock is acquired once per node per round, adding me+1.
		if want := int64(rounds * P * (P + 1) / 2); refSum != want {
			return false
		}
		got, gotSum, ok := run(Config{Procs: P, GCPressure: 2})
		if !ok || gotSum != refSum {
			return false
		}
		for w := range ref {
			if got[w] != ref[w] {
				t.Logf("seed %d: word %d differs: GC on %d, off %d", seed, w, got[w], ref[w])
				return false
			}
		}
		return true
	}
	max := 12
	if testing.Short() {
		max = 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
	if foreignValidated == 0 {
		t.Error("no plan validated a copy away from its home: the non-home validation wave went unexercised")
	}
}

// TestAcqCoordProperties drives the consensus coordinator itself with
// random report/purge sequences and checks its safety invariants: every
// announced floor is dominated by every clock reported at announcement
// time (so every node has incorporated everything under it), the issued
// baseline is monotone, and a new epoch is never announced while any
// node's purges lag the previously issued floors (the gate that makes
// the one-epoch-delayed free sound). No global purge order is imposed
// (the per-page homePurged registry orders flushes), but a node must only
// be handed floors dominated by its own reported clock. And a node that has
// not acknowledged — its purge still waits on a lagging home — blocks the
// next announcement however many times it reports meanwhile.
func TestAcqCoordProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := 2 + rng.Intn(6)
		co := newAcqCoord(procs, 1+rng.Intn(8))
		clocks := make([]VectorClock, procs)
		for i := range clocks {
			clocks[i] = newVC(procs)
		}
		prevBaseline := newVC(procs)
		for step := 0; step < 300; step++ {
			id := rng.Intn(procs)
			// The node makes progress: its own component grows, and it
			// "incorporates" a random prefix of the others.
			clocks[id][id] += int32(rng.Intn(3))
			for j := range clocks {
				if j != id && rng.Intn(2) == 0 {
					clocks[id][j] = clocks[j][j] - int32(rng.Intn(2))
					if clocks[id][j] < 0 {
						clocks[id][j] = 0
					}
				}
			}
			beforePurged := make([]VectorClock, procs)
			for i := range beforePurged {
				beforePurged[i] = co.purged[i].clone()
			}
			beforeAnnounced := co.announced
			floor, pending, _ := co.report(id, clocks[id], true)
			if co.announced > beforeAnnounced {
				// A fresh announcement: the gate must have held (every
				// node had purged the previous baseline) ...
				for i := range beforePurged {
					if !prevBaseline.dominatedBy(beforePurged[i]) {
						return false
					}
				}
				// ... and the new floor must be below every reported clock.
				for i := range co.reported {
					if !co.baseline.dominatedBy(co.reported[i]) {
						return false
					}
				}
			}
			// Baseline monotone.
			if !prevBaseline.dominatedBy(co.baseline) {
				return false
			}
			prevBaseline = co.baseline.clone()
			if pending {
				// Home-aware soundness: a node is only ever
				// handed a floor below its own reported clock — it holds
				// every notice the purge will classify, and the per-page
				// flush gate needs nothing more from the coordinator.
				if !floor.dominatedBy(co.reported[id]) {
					return false
				}
				if rng.Intn(4) == 0 {
					// Still waiting on a home. Meanwhile every node — this
					// one too — works on, incorporates everything and reports
					// it, round after round: pressure builds well past the
					// threshold, yet nothing may be announced, and the floor
					// owed stays the one handed out.
					announced := co.announced
					for k := 1 + rng.Intn(5); k > 0; k-- {
						for j := range clocks {
							clocks[j][j] += int32(1 + rng.Intn(8))
						}
						for j := range clocks {
							for i := range clocks {
								clocks[j][i] = clocks[i][i]
							}
							co.report(j, clocks[j], true)
						}
					}
					again, still := co.baseline, !co.baseline.dominatedBy(co.purged[id])
					if co.announced != announced || !still || !slices.Equal(again, floor) {
						return false
					}
				}
				co.notePurged(id, floor)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAcqCoordEpisodeTrigger pins noteIssued, the episode trigger: a root
// clock that newly covers the pressure is announced only behind an open
// gate; a closed gate (a node still owes a consensus floor) or a floor below
// threshold skips the episode, and in every case the episode's nodes are
// handed exactly the baseline the root left, never a floor announced after.
func TestAcqCoordEpisodeTrigger(t *testing.T) {
	const procs = 3
	co := newAcqCoord(procs, 4)
	vc := func(a, b, c int32) VectorClock { return VectorClock{a, b, c} }
	owes := func(id int) VectorClock {
		floor, ok := co.episodeFloorFor(id)
		if !ok {
			return nil
		}
		return floor
	}

	co.noteIssued(vc(1, 1, 1)) // 3 records: below the pressure
	if co.episodes != 0 || owes(0) != nil {
		t.Fatalf("a floor below threshold was announced: %d episodes, node 0 owes %v", co.episodes, owes(0))
	}
	co.noteIssued(vc(2, 2, 1)) // 5 records: announced
	if co.episodes != 1 || !slices.Equal(owes(2), vc(2, 2, 1)) {
		t.Fatalf("open gate, 5 records: %d episodes, node 2 owes %v", co.episodes, owes(2))
	}
	co.notePurged(0, vc(2, 2, 1))
	co.notePurged(1, vc(2, 2, 1))
	co.noteIssued(vc(5, 5, 5)) // node 2 has not acknowledged: the gate is closed
	if co.episodes != 1 || owes(0) != nil || !slices.Equal(owes(2), vc(2, 2, 1)) {
		t.Fatalf("closed gate: %d episodes, node 0 owes %v, node 2 owes %v; want 1, nothing, the old floor",
			co.episodes, owes(0), owes(2))
	}
	co.notePurged(2, vc(2, 2, 1))
	// The consensus announces past the episode's baseline: not the
	// episode's business.
	for id := 0; id < procs; id++ {
		co.report(id, vc(4, 4, 4), false)
	}
	if co.announced != 1 || owes(0) != nil {
		t.Fatalf("consensus floor: %d announced, node 0 owes %v at the episode; want 1, nothing", co.announced, owes(0))
	}
	co.noteIssued(vc(6, 6, 6)) // node acknowledgments of (4,4,4) are missing: closed
	if co.episodes != 1 || !slices.Equal(owes(1), vc(4, 4, 4)) {
		t.Fatalf("episode behind an owed consensus floor: %d episodes, node 1 owes %v", co.episodes, owes(1))
	}
}
