package dsm

import "fmt"

// Garbage collection of lazy-release-consistency metadata.
//
// Without collection, intervals, write notices, encoded diffs, and twins
// accumulate for the whole run: protocol memory grows without bound and
// every fault walks ever-longer chains. Real TreadMarks reclaims this
// state at global synchronization points; this file is the simulation's
// analogue for the BARRIER/FORK epoch source (acqgc.go adds the
// lock-manager-led acquire source for programs that never barrier), keyed
// to barriers because a barrier is the one moment the system is provably
// quiescent — every application thread is parked inside Barrier(), so no
// fault, lock grant, or delta is in flight.
//
// Every global synchronization episode — each barrier and each fork (the
// region boundary that is OpenMP's implicit barrier) — is examined, and
// one that crosses the collection threshold (see gcEpochLocked) runs an
// epoch, in three steps on every node:
//
//  1. FREE the interval records — and their encoded diffs and remaining
//     twins — retired at the PREVIOUS episode epoch (the retire floor
//     saved in gcFreeVC). The one-epoch delay is what makes freeing safe
//     without extra message rounds: diffs of intervals retired at epoch k
//     may still be fetched DURING epoch k by any node's validation pass,
//     but after every node has finished epoch k no unfetched write notice
//     under the floor exists anywhere (each node either applied or
//     discarded its covered notices), none can ever reappear (new
//     intervals carry higher sequence numbers), and so epoch k+1 can free
//     with no coordination. A twin that is still unencoded here was never
//     needed at all and is released without ever paying for diff
//     creation.
//
//  2. PURGE page references covered by the new retire floor — the barrier
//     root's merged vector clock at the episode, which covers every
//     interval in existence there, all of them incorporated by every node
//     by the time it processes its departure (or fork). A page's HOME
//     (its allocator and the collector's authoritative copy, see home.go)
//     always VALIDATES its own pages: it fetches and applies every pending
//     diff, keeping each authoritative copy current — which is why an
//     episode that collects ships every page written since the last
//     collection to its home, read or not, and why episodes collect under
//     pressure only. Other nodes FLUSH the stale copy (refetch it whole
//     from the home on next access) — the invalidate side of TreadMarks
//     GC's validate-vs-invalidate choice — unless the copy holds content
//     no notice could re-deliver (mustKeep in gcPurgePagesLocked), which
//     validates like a home. Validation is one fetch exchange, the fault
//     path's own (Client.fetch): the covered diffs from their creators —
//     and, for a flushed copy, the home's whole page under them — grouped
//     by source, installed by applyFaultLocked.
//     A flush may only drop notices the home's copy already reflects —
//     otherwise the later whole-page refetch is lossy. This episode source
//     gets that guarantee deterministically by LAGGING the flush floor one
//     collecting episode: every node finishes episode e-1's purge
//     (validating its own homed pages to that floor) before sending its
//     episode-e arrival, so when any node processes episode e, every home
//     provably holds the e-1 floor. Foreign pages therefore flush only
//     notices under the PREVIOUS floor (gcFreeVC) and keep the
//     one-episode tail, which the next episode drops in turn (or an
//     intervening fault applies over the page's base). The acquire source
//     (acqgc.go) has no such happens-before wave and gates flushes per
//     page on the homePurged registry instead: while a home lags the copy
//     is LEFT ALONE, and the node finishes its purge once the home publishes.
//
//     The floor is always the root's clock AS CARRIED IN THE EPISODE'S
//     MESSAGE, never the local clock: a node's protocol server may
//     already have incorporated intervals that a faster peer created
//     AFTER leaving this same episode, and a floor read from the local
//     clock would cover them before the rest of the system has them —
//     epoch floors must be identical on every node for the one-epoch
//     free delay to be sound.
//
//  3. Report the purge to the acquire-epoch coordinator (when one is
//     running): collected episode floors join the coordinator's issued
//     baseline, so acquire announcements stay blocked until every node
//     has processed the episode — the interlock that lets the two epoch
//     sources free behind their own floors without racing each other's
//     validation fetches.
//
// Finally the knownVC estimates are raised to the freed floor (every
// node provably incorporated everything under it one epoch ago), and the
// floor advances. Locks, semaphores, and condition variables need no
// special handling here: a thread blocked on any of them keeps the
// barrier — and therefore this collector — from running at all (the
// acquire source is what collects for them).

// epochFloor tracks one episode's floor (and trigger-decision) agreement
// across nodes.
type epochFloor struct {
	floor   VectorClock
	collect bool
	seen    int
}

// checkEpochFloor verifies that every node presents the identical retire
// floor — and reaches the identical collect-or-skip decision — for a
// given episode index: the first node to reach the episode records its
// view, the rest must match, and the record is dropped once all have
// checked in (so the tripwire itself retains nothing).
func (s *System) checkEpochFloor(episode int64, id int, floor VectorClock, collect bool) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	e, ok := s.gcFloors[episode]
	if !ok {
		e = &epochFloor{floor: floor.clone(), collect: collect}
		s.gcFloors[episode] = e
	} else {
		for i, v := range e.floor {
			if floor[i] != v {
				panic(fmt.Sprintf("dsm: node %d GC episode %d floor %v diverges from %v",
					id, episode, floor, e.floor))
			}
		}
		if collect != e.collect {
			panic(fmt.Sprintf("dsm: node %d GC episode %d trigger decision %v diverges from %v",
				id, episode, collect, e.collect))
		}
	}
	e.seen++
	if e.seen == s.cfg.Procs {
		delete(s.gcFloors, episode)
	}
}

// ivlRecordBytes estimates the retained footprint of one interval record:
// struct header, vector clock, and write-notice page list.
func ivlRecordBytes(ivl *interval) int64 {
	return int64(48 + 4*len(ivl.vc) + 8*len(ivl.pages))
}

// gcEpochLocked runs one synchronization episode of the collector with
// the given retire floor: it decides — identically on every node —
// whether to collect, and if so runs the epoch. It requires n.mu and
// releases and reacquires it while validation diff fetches are in flight.
// Node 0 calls it at each barrier (after incorporating every arrival,
// before sending any departure) and at each fork (before sending the fork
// messages), passing its own clock; every other node calls it — on its
// APPLICATION thread — after incorporating the matching departure or fork
// delta, passing the clock that message carried: the identical floor.
//
// Triggering: the epoch runs only when the floor would newly retire at
// least the resolved threshold of interval records (Config.
// GCEpisodeThreshold — by default the same pressure the acquire source
// reads: TreadMarks collects when consistency memory runs low, not at
// every barrier). Collecting at EVERY episode (Config.GCMinRetire: 1)
// costs ~25% on barrier-dense workloads (see `nowbench -ablation gc`),
// mostly in the manager's validation pause, and ships every page written
// since the last barrier to its home whether or not anyone will read it.
// The predicate is the floor's component sum minus the last collecting
// floor's. Both sums derive exclusively from episode floors, which are
// identical on every node by construction (the acquire-epoch source never
// touches gcFreeVC), so every node skips and collects the same episodes
// with no extra coordination; checkEpochFloor tripwires that agreement.
func (n *Node) gcEpochLocked(c *Client, retire VectorClock) {
	episode := n.stats.GCEpisodes
	n.stats.GCEpisodes++
	collect := n.gcWillCollectLocked(retire)
	// Soundness tripwire: all nodes must agree on every episode's floor
	// and trigger decision (they run the same episode sequence), or the
	// one-epoch free delay breaks. Divergence here means a caller derived
	// a floor from state that is not identical on every node.
	n.sys.checkEpochFloor(episode, n.id, retire, collect)
	if !collect {
		return
	}
	if n.sys.acq != nil && n.id == 0 {
		// Block acquire announcements until every node has processed this
		// episode (noteIssued runs before any departure or fork message
		// leaves node 0, so no node can still be unaware of the episode
		// when the gate reopens).
		n.sys.acq.noteIssued(retire)
	}

	// Foreign-homed pages flush against the PREVIOUS collecting floor
	// (captured before gcCollectLocked advances it): every home completed
	// that episode's validation before this episode's floor could even be
	// formed, so the lagged flush needs no registry check and stays
	// deterministic (see the file comment, step 2).
	flushVC := n.gcFreeVC
	// An acquire purge may still wait on lagging homes here (acqEpoch). The
	// episode vouches for everything under its floor while its lagged flush
	// keeps the (flushVC, retire] tail, so what still owes notices under the
	// owed floor is settled now: validated where the home still lags. AFTER
	// the episode's own purge, so that nothing under flushVC — which faster
	// nodes free at this very episode — is ever asked for.
	owed := n.gcAcqOwed
	n.gcAcqOwed, n.gcAcqLag = nil, nil
	n.gcCollectLocked(&n.gcFreeVC, retire, func() {
		n.gcPurgePagesLocked(c, retire, flushVC, true, false)
		if owed != nil {
			n.gcPurgePagesLocked(c, owed, owed, false, false)
		}
	})
	n.stats.GCEpochs++
	if n.sys.acq != nil {
		n.sys.acq.notePurged(n.id, retire)
	}
}

// gcWillCollectLocked evaluates the episode trigger predicate for the
// given retire floor WITHOUT running the epoch: the number of interval
// records the floor would newly retire against the resolved threshold.
// Both inputs (the floor and the last collecting floor, gcFreeVC) are
// identical on every node, so the decision is too — which is what lets a
// departure forwarder know, before its own epoch runs, whether the
// episode its children are about to process will purge (and therefore
// whether a pending acquire floor needs piggybacking; see
// forwardDeparturesLocked). Requires n.mu.
func (n *Node) gcWillCollectLocked(retire VectorClock) bool {
	pending := retire.sum()
	if n.gcFreeVC != nil {
		pending -= n.gcFreeVC.sum()
	}
	return pending >= int64(n.sys.cfg.GCEpisodeThreshold())
}

// gcCollectLocked is the collection-epoch tail shared by the two epoch
// sources, each threading its own delayed-free floor through `prev`
// (gcFreeVC for barrier/fork episodes, gcAcqFreeVC for acquire epochs):
// FREE everything the source's previous epoch retired, raise the
// piggyback-delta estimates to that freed floor (everything under it was
// incorporated by every node before the previous epoch completed;
// deltaForLocked additionally clamps to the retained base, so this is an
// optimization, not a soundness requirement), advance the source floor,
// claim it in gcPurgeVC BEFORE the purge can release n.mu (so a
// concurrent island-mate's hook skips instead of double-purging), run the
// purge, and close out the epoch bookkeeping. The soundness argument
// requires both sources to execute exactly this sequence.
func (n *Node) gcCollectLocked(prev *VectorClock, floor VectorClock, purge func()) {
	n.freeRetiredLocked(*prev)
	if *prev != nil {
		for j := range n.knownVC {
			if j != n.id {
				n.knownVC[j].merge(*prev)
			}
		}
	}
	*prev = floor
	if n.gcPurgeVC == nil {
		n.gcPurgeVC = floor.clone()
	} else {
		n.gcPurgeVC.merge(floor)
	}
	purge()
	// Publish the completed purge in the home registry immediately (before
	// the acquire coordinator hears of it): peers may flush pages homed
	// here the moment our authoritative copies reflect the floor.
	n.sys.purged.note(n.id, floor)
	n.pruneGCPagesLocked()
}

// pruneGCPagesLocked shrinks the GC work list after a collection: only
// pages still owing uncovered notices (or holding a twin) stay. Clearing
// the tail drops the pruned pages' references.
func (n *Node) pruneGCPagesLocked() {
	kept := n.gcPages[:0]
	for _, pg := range n.gcPages {
		if len(pg.missing) > 0 || pg.twin != nil {
			kept = append(kept, pg)
		} else {
			pg.inGCList = false
		}
	}
	for i := len(kept); i < len(n.gcPages); i++ {
		n.gcPages[i] = nil
	}
	n.gcPages = kept
}

// freeRetiredLocked truncates every per-creator interval list up to the
// given floor, releasing each freed record together with its encoded
// diffs and — for the node's own intervals — any twin still owed to it.
// The floor must be globally purged: every node has already applied or
// discarded all write notices under it, so nothing here can ever be
// fetched again (serveDiffLocked's retired-interval tripwire enforces
// this). Both epoch sources call it with their own delayed floor.
func (n *Node) freeRetiredLocked(free VectorClock) {
	if free == nil {
		return // first epoch of this source: nothing retired yet
	}
	for c := range n.intervals {
		have := n.intervals[c]
		drop := int(free[c]) - n.ivlBase[c]
		if drop <= 0 {
			continue
		}
		if drop > len(have) {
			panic(fmt.Sprintf("dsm: node %d freeing %d intervals of creator %d but only %d retained",
				n.id, drop, c, len(have)))
		}
		for _, ivl := range have[:drop] {
			n.protoAddLocked(-ivlRecordBytes(ivl))
			for _, d := range ivl.diffs {
				n.protoAddLocked(-int64(len(d)))
			}
			ivl.diffs = nil
			if c == n.id {
				// A twin still owed to a freed interval encodes a diff no
				// one can ever request: release it without paying for the
				// encoding.
				for _, pid := range ivl.pages {
					pg := n.pages[pid]
					if pg != nil && pg.twinIvl == ivl {
						pg.twinIvl = nil
						pg.twin = nil
						n.protoAddLocked(-PageSize)
						n.stats.TwinsCollected++
					}
				}
			}
		}
		// Copy to a fresh slice so the freed records' backing array is
		// actually reclaimable.
		n.intervals[c] = append(make([]*interval, 0, len(have)-drop), have[drop:]...)
		n.ivlBase[c] += drop
		n.stats.IntervalsRetired += int64(drop)
	}
}

// owesCovered reports whether the page owes a notice under the floor.
func owesCovered(pg *page, retire VectorClock) bool {
	for _, m := range pg.missing {
		if retire.covers(m.creator, m.seq) {
			return true
		}
	}
	return false
}

// gcCanFlushAllLocked reports whether a flush-only purge to the given
// floor is safe on this node: no covered-owing page may hold own writes
// above the floor (flushing would lose them; see page.lastOwnSeq), be
// homed here (homes validate their own pages — the authoritative copy),
// or be homed at a node that has not yet purged the floor (the per-page
// flush gate, see home.go). The server-side purge checks this BEFORE
// touching any state and defers to the application-thread hook (which can
// validate) when it fails.
func (n *Node) gcCanFlushAllLocked(retire VectorClock) bool {
	for _, pg := range n.gcPages {
		if !owesCovered(pg, retire) {
			continue
		}
		if pg.lastOwnSeq >= 0 && !retire.covers(n.id, pg.lastOwnSeq) {
			return false
		}
		if pg.data != nil && pg.appliedVC != nil && !pg.appliedVC.dominatedBy(retire) {
			// Applied diffs above the floor are baked into this copy only
			// (their notices are gone from `missing`); the home's copy is
			// not yet guaranteed to reflect them.
			return false
		}
		if home := n.homeOf(pg.id); home == n.id || !n.sys.purged.covers(home, retire) {
			return false
		}
	}
	return true
}

// gcFlushPageLocked discards one page's copy together with its notices
// under the flush floor, preserving newer notices — the flush half of
// the validate-vs-flush choice, shared by the per-page purge and the
// consensus-push purge. The flush floor may lag the retire floor (the
// barrier source) or be nil on the first collecting
// episode, in which case only the copy is discarded and every notice
// survives. Requires n.mu.
func (n *Node) gcFlushPageLocked(pg *page, flushVC VectorClock) {
	if pg.twin != nil || pg.inDirty {
		panic(fmt.Sprintf("dsm: node %d GC flushing page %d with live twin", n.id, pg.id))
	}
	keep := pg.missing[:0]
	for _, m := range pg.missing {
		if flushVC == nil || !flushVC.covers(m.creator, m.seq) {
			keep = append(keep, m)
		}
	}
	dropped := len(pg.missing) - len(keep)
	for i := len(keep); i < len(pg.missing); i++ {
		pg.missing[i] = nil
	}
	pg.missing = keep
	if dropped > 0 {
		// The dropped notices survive only in the home's validated copy
		// now: any rebuild of this page must start from a whole-page fetch
		// (the next fault does exactly that), never from a zeros base.
		pg.refetch = true
	}
	if pg.data == nil && dropped == 0 {
		return // nothing to discard: copy already gone, every notice kept
	}
	if pg.data != nil {
		// The discarded copy may bake in applied diffs and own writes whose
		// notices are gone from `missing` (appliedVC — the caller checked
		// the home's floor covers it); only the home's validated copy can
		// reproduce them, so any rebuild must also start from a whole-page
		// fetch, never from a zeros base.
		pg.refetch = true
		pg.appliedVC = nil
	}
	pg.data = nil
	pg.state = pageInvalid
	n.stats.GCPagesFlushed++
}

// gcFlushCoveredLocked is the network-free purge used by the consensus
// push path (acqEpochServer): every copy owing notices covered by
// the floor is discarded outright, notices newer than the floor are
// preserved. The caller must have checked gcCanFlushAllLocked. Requires
// n.mu (and the caller holds fetchMu, so no local fault snapshot can
// straddle the flush).
func (n *Node) gcFlushCoveredLocked(retire VectorClock) {
	for _, pg := range n.gcPages {
		if owesCovered(pg, retire) {
			n.gcFlushPageLocked(pg, retire)
		}
	}
}

// gcPurgePagesLocked is the purge step shared by both epoch sources:
// every work-list page owing notices covered by the retire floor is
// either validated (planned as a fault would plan it — its covered diffs,
// over the home's whole page if the copy was flushed — and fetched with
// every other validated page in one exchange) or flushed (copy discarded
// up to flushVC, to be refetched whole from its home's validated copy on
// next access). Notices newer than the relevant floor are preserved either
// way. The rule: a page's home validates — its copy is the base every
// post-flush refetch builds on; a copy that must be kept (mustKeep, below)
// validates; every other copy flushes, the classic TreadMarks invalidate
// choice (README "Protocol-metadata garbage collection" records the
// measurement that decided against keeping recently faulted copies). The
// barrier/fork source (quiescent) flushes against its lagged flushVC, which
// every home covers by construction. The acquire source (flushVC equals
// the retire floor) may flush only once the page's home has purged the
// floor (the homePurged registry, home.go): until then, with wait set, the
// page is left exactly as it is — nothing fetched, no notice dropped, a
// fault on it an ordinary fault — and its home returned in lag for the
// caller to wait on (acqEpoch). Without wait such a page validates: sound,
// covered diffs being fetchable until the one-epoch-delayed free, but it
// ships a whole diff chain to whichever node reached the epoch before the
// home; only an episode settling an owed purge does (gcEpochLocked).
//
// It requires n.mu and releases/reacquires it around the network section.
// The whole purge holds fetchMu: fetch replies route by message type
// alone, so the wave must never interleave with a concurrent application
// fault on a multi-client node — and holding fetchMu across the
// classification also guarantees no local fault snapshot straddles the
// purge. At quiescent episodes (barrier/fork) the exclusivity is vacuous;
// at acquire epochs it is load-bearing.
func (n *Node) gcPurgePagesLocked(c *Client, retire, flushVC VectorClock, quiescent, wait bool) (lag []int) {
	n.mu.Unlock()
	n.fetchMu.Lock()
	defer n.fetchMu.Unlock()
	n.mu.Lock()

	n.stats.GCPurges++
	published := map[int]bool{} // home → has it purged the floor: one registry read a home, not a page
	homePurged := func(home int) bool {
		ok, seen := published[home]
		if !seen {
			ok = n.sys.purged.covers(home, retire)
			published[home] = ok
			if !ok && wait {
				lag = append(lag, home)
			}
		}
		return ok
	}
	var work []pagePlan
	for _, pg := range n.gcPages {
		if len(pg.missing) == 0 {
			continue
		}
		var covered []*interval
		uncovered := 0
		for _, m := range pg.missing {
			if retire.covers(m.creator, m.seq) {
				covered = append(covered, m)
			} else {
				uncovered++
			}
		}
		if len(covered) == 0 {
			continue
		}
		if quiescent && n.id == 0 && uncovered > 0 {
			// Impossible at a barrier/fork: no node is running application
			// code that could create intervals beyond the root's clock.
			panic(fmt.Sprintf("dsm: root GC found uncovered notice on page %d at a quiescent episode", pg.id))
		}
		// A page owing diffs cannot carry local modifications
		// (invalidation encodes any pending diff and drops the twin).
		if pg.twin != nil || pg.inDirty {
			panic(fmt.Sprintf("dsm: node %d GC purging page %d with live twin", n.id, pg.id))
		}
		// A copy holding own writes above the floor must be kept (see
		// page.lastOwnSeq): validate it wherever it is homed.
		mustKeep := pg.lastOwnSeq >= 0 && !retire.covers(n.id, pg.lastOwnSeq) && pg.data != nil
		// Lagged-floor safety: a flush rebuilds from the home, and the home
		// is only guaranteed to reflect flushVC — which trails the retire
		// floor at episodes (and trails the node's recent history at
		// acquire epochs). Content baked into the copy beyond flushVC — own
		// closed writes and already-applied diffs (page.appliedVC) — has no
		// notice left to re-deliver it, so discarding the copy would lose
		// it: validate instead.
		if !mustKeep && pg.data != nil {
			if pg.lastOwnSeq >= 0 && (flushVC == nil || !flushVC.covers(n.id, pg.lastOwnSeq)) {
				mustKeep = true
			} else if pg.appliedVC != nil && (flushVC == nil || !pg.appliedVC.dominatedBy(flushVC)) {
				mustKeep = true
			}
		}
		home := n.homeOf(pg.id)
		if !mustKeep && home != n.id {
			if quiescent || homePurged(home) {
				n.gcFlushPageLocked(pg, flushVC)
				continue
			}
			if wait {
				continue
			}
		}
		pl := pagePlan{pg: pg, source: -1, fetch: covered, resolved: covered}
		if pg.data == nil {
			if pg.refetch {
				// An earlier flush dropped notices this node no longer
				// holds; only the home's validated copy reflects them.
				// Rebuild from the home's whole page with the covered
				// tail applied on top — one round brings both.
				pl.source = home
			} else {
				// Never materialized here: zeros plus the covered
				// history applied in causal order is exactly the floor
				// contents.
				n.zeroFillLocked(pg)
			}
		}
		work = append(work, pl)
	}
	if len(work) == 0 {
		return lag
	}

	// One fetch exchange, like a fault round's — but priced as it always
	// was: the client's clock stops at the latest reply arrival ("the
	// parallel validation sweep") and the inbound-link floor fetch returns
	// is NOT applied. Flooring the wave is a model change, not a
	// simplification (measured: locks8 speedup 2.50 → 1.51, scale64 2.26 →
	// 1.12, paged8 3.89 → 3.82); it is the optimism per-port occupancy in
	// the network model will price.
	entered := c.clk.Now()
	n.mu.Unlock() // --- network section: servers may run meanwhile ---
	diffs, _, msgs, bytes := c.fetch(work)
	n.mu.Lock() // --- end network section ---

	for i := range work {
		// Exactly the validated notices go; notices newer than the floor
		// (and any that arrived during the network section) stay.
		c.applyFaultLocked(&work[i], diffs)
		n.stats.GCPagesValidated++
	}
	n.stats.GCWait += c.clk.Now() - entered
	n.stats.GCWaveMsgs += msgs
	n.stats.GCWaveBytes += bytes
	return lag
}
