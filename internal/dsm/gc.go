package dsm

import (
	"fmt"
	"slices"
)

// Garbage collection of lazy-release-consistency metadata.
//
// Without collection, intervals, write notices and encoded diffs
// accumulate for the whole run: protocol memory grows without bound and
// every fault walks ever-longer chains. TreadMarks reclaims this state with
// ONE collector — a consensus on a floor every node has incorporated, run
// when consistency memory runs low (Amza et al., IEEE Computer '96) — and
// so does this package. The collector is the acquire-epoch coordinator
// (acqgc.go). It has two triggers, two producers of the same announcement:
//
//   - the CONSENSUS trigger: lock, semaphore and condition-variable requests
//     carry each thread's clock, and the coordinator announces their
//     componentwise minimum once it newly covers Config.GCPressure records.
//     It is what collects for programs that never barrier.
//   - the EPISODE trigger: at a barrier or a fork the root already holds the
//     complete consensus — every node's clock merged into its own — and
//     announces that clock through the same coordinator (noteIssued), under
//     the same pressure and behind the same gate.
//
// Processing an announced floor on a node (acqEpochLocked) is three steps,
// always on the node's application thread — a protocol server never purges:
//
//  1. FREE the interval records — and their encoded diffs — retired by
//     the PREVIOUS floor (gcFreeVC). The coordinator's gate makes that
//     sound without extra messages: it announces nothing until every node
//     has acknowledged every floor issued so far, and a node acknowledges
//     only a finished purge, so once any node processes floor k+1, no node
//     anywhere owes a notice under floor k, and none can reappear (new
//     intervals carry higher sequence numbers). A diff the modelled node
//     never encoded was never needed and retires unpaid.
//
//  2. PURGE the page copies owing notices under the floor, by one rule
//     (gcPurgePagesLocked): a page's HOME (home.go) validates — fetches and
//     applies the covered diffs, keeping the authoritative copy every
//     refetch builds on; a copy holding content no notice could re-deliver
//     validates too; every other copy FLUSHES (the invalidate side of
//     TreadMarks GC's validate-vs-invalidate choice), but only once its home
//     has published a purge covering the floor, since a flush may drop only
//     notices the home's copy already reflects. Until then the copy is left
//     alone, notices and all, and the node owes the floor (gcAcqOwed).
//
//  3. PUBLISH: the home registry entry right after the first pass — a
//     node's own homed pages never wait, so publishing never waits — and the
//     acknowledgment to the coordinator once the last page is done.
//
// The triggers differ only in where a node waits for homes. An episode floor
// is handled on every node's application thread right after it incorporates
// the episode's departure or fork (gcEpisodeLocked): every node is doing the
// same at the same moment, so it blocks, in host time only, on the homes it
// waits for; each wait ends once all P nodes have made their first pass, and
// the episode's outcome does not depend on goroutine order. A consensus floor
// arrives while peers run application code, and a home may be parked on a
// condition variable, so there a node never blocks: it finishes at a later
// synchronization operation (acqgc.go). An episode also finishes an acquire
// floor a node still owes.
//
// The floor is always a clock the coordinator issued — at an episode, the
// root's clock as carried in the episode's messages — never a node's live
// clock: a node's protocol server may already have incorporated intervals a
// faster peer created after leaving the same episode.

// ivlRecordBytes estimates the retained footprint of one interval record:
// struct header, vector clock, and write-notice page list.
func ivlRecordBytes(ivl *interval) int64 {
	return int64(48 + 4*len(ivl.vc) + 8*len(ivl.pages))
}

// gcEpisodeLocked is this node's side of a barrier or fork episode whose
// clock `at` it has just incorporated: count the episode, then finish the
// floor it owes there — the episode's own, when the root announced one, or
// an acquire floor still owed — waiting in host time for the homes its
// copies need. It handles only what the episode's root left issued: a floor
// the consensus announces after that is not every node's business at this
// episode, and waiting on it could wait on a home parked on a condition
// variable. Requires n.mu; releases it while waiting and around validation
// waves.
func (n *Node) gcEpisodeLocked(c *Client, at VectorClock) {
	n.stats.GCEpisodes++
	co := n.sys.acq
	for {
		floor, pending := co.episodeFloorFor(n.id)
		if !pending && n.gcAcqOwed == nil {
			return
		}
		epochs := &n.stats.GCAcqEpochs
		if slices.Equal(floor, at) {
			epochs = &n.stats.GCEpochs
		}
		if done := c.acqEpochLocked(floor, epochs); done != nil {
			co.notePurged(n.id, done)
			continue
		}
		owed, lag := n.gcAcqOwed, n.gcAcqLag
		if owed == nil {
			return // an island-mate claimed the floor
		}
		n.unlocked(func() {
			for _, h := range lag {
				if !co.awaitHome(h, owed, n.sys.done) {
					panic(abortError{cause: "switch shut down"})
				}
			}
		})
	}
}

// gcCollectLocked opens one collection epoch on this node: FREE everything
// the previous floor retired, raise the piggyback-delta estimates to that
// freed floor (everything under it was incorporated by every node before
// the previous epoch completed; deltaForLocked additionally clamps to the
// retained base, so this is an optimization, not a soundness requirement),
// advance the free floor, claim the new one in gcPurgeVC BEFORE the purge
// can release n.mu (so a concurrent island-mate's hook skips instead of
// double-purging), run the purge's first pass, and publish it. It returns
// the homes the first pass left pages waiting for.
func (n *Node) gcCollectLocked(c *Client, floor VectorClock) (lag []int) {
	n.freeRetiredLocked(n.gcFreeVC)
	if n.gcFreeVC != nil {
		for j := range n.knownVC {
			if j != n.id {
				n.knownVC[j].merge(n.gcFreeVC)
			}
		}
	}
	n.gcFreeVC = floor
	if n.gcPurgeVC == nil {
		n.gcPurgeVC = floor.clone()
	} else {
		n.gcPurgeVC.merge(floor)
	}
	lag = n.gcPurgePagesLocked(c, floor)
	// Publish the completed first pass in the home registry immediately
	// (before the acknowledgment): peers may flush pages homed here the
	// moment our authoritative copies reflect the floor.
	n.sys.acq.publish(n.id, floor)
	n.pruneGCPagesLocked()
	return lag
}

// pruneGCPagesLocked shrinks the GC work list after a collection: only
// pages still owing uncovered notices (or dirty with a twin) stay. Clearing
// the tail drops the pruned pages' references.
func (n *Node) pruneGCPagesLocked() {
	kept := n.gcPages[:0]
	for _, pg := range n.gcPages {
		if len(pg.missing) > 0 || pg.holds() && pg.twin != nil {
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
// diffs — the node's own still unpaid ones without a charge. The floor must be globally purged: every node has already applied or
// discarded all write notices under it, so nothing here can ever be
// fetched again (serveDiffLocked's retired-interval tripwire enforces
// this).
func (n *Node) freeRetiredLocked(free VectorClock) {
	if free == nil {
		return // first epoch: nothing retired yet
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
				n.sys.pool.put(d)
			}
			if c == n.id {
				// A diff the modelled node never encoded is one no node
				// can request any more: it retires unpaid.
				for _, pid := range ivl.pages {
					n.payLocked(n.pages[pid], ivl) // this node wrote it: it has a copy part
				}
			}
			ivl.diffs = nil
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

// mustKeepLocked reports whether a copy holds content no notice under the
// floor could re-deliver — own writes above it (page.lastOwnSeq) or applied
// diffs above it (page.appliedVC). A flush rebuilds from the home, which is
// only guaranteed to reflect the floor, so such a copy validates wherever it
// is homed.
func (n *Node) mustKeepLocked(pg *page, retire VectorClock) bool {
	if !pg.holds() {
		return false
	}
	return pg.lastOwnSeq >= 0 && !retire.covers(n.id, pg.lastOwnSeq) ||
		pg.appliedVC != nil && !pg.appliedVC.dominatedBy(retire)
}

// gcFlushPageLocked discards one page's copy together with its notices
// under the floor, preserving newer notices — the flush half of the
// validate-vs-flush choice. The page owes at least one covered notice, and
// has no twin (gcPurgePagesLocked checks). Requires n.mu.
func (n *Node) gcFlushPageLocked(pg *page, retire VectorClock) {
	pg.copyPart() // first: keepSeenLocked folds what the flush drops
	pg.refetch = true
	n.keepSeenLocked(pg)
	keep := pg.missing[:0]
	for _, m := range pg.missing {
		if !retire.covers(m.creator, m.seq) {
			keep = append(keep, m)
		}
	}
	for i := len(keep); i < len(pg.missing); i++ {
		pg.missing[i] = nil
	}
	pg.missing = keep
	// The dropped notices — and whatever applied diffs and own writes the
	// discarded copy baked in (appliedVC; the caller checked the home's
	// floor covers them) — survive only in the home's validated copy now:
	// any rebuild of this page must start from a whole-page fetch (the next
	// fault does exactly that), never from a zeros base.
	pg.appliedVC = nil
	n.sys.pool.put(pg.data)
	pg.data = nil
	pg.state = pageInvalid
	n.stats.GCPagesFlushed++
}

// gcPurgePagesLocked is the purge rule (this file's step 2), stated once,
// applied to every page of the work list owing notices the floor covers. A
// home's copy and one that must be kept (mustKeepLocked) validate: the
// covered diffs of every such page are fetched in one exchange, the fault
// path's own, and applied. Any other copy flushes once its home has purged
// the floor — discarded with its covered notices, to be refetched whole from
// its home's validated copy on next access; the TreadMarks invalidate
// choice, which README "Protocol-metadata garbage collection" records the
// measurement for — and waits as it is until then. Notices newer than the
// floor stay either way. It reads the registry once a home and returns the
// homes the waiting pages need, each once, for the caller to wait on
// (acqEpochLocked).
//
// Every validated page holds a copy: a home's is built from zeros at first
// use (useLocked — the wave may be that use), and a copy that must be kept
// has one by definition. So the wave fetches diffs only, never a whole page.
//
// It requires n.mu and releases/reacquires it around the network section.
// The whole purge holds fetchMu: fetch replies route by message type
// alone, so the wave must never interleave with a concurrent application
// fault on a multi-client node — and holding fetchMu across the
// classification also guarantees no local fault snapshot straddles the
// purge.
func (n *Node) gcPurgePagesLocked(c *Client, retire VectorClock) (lag []int) {
	n.mu.Unlock()
	n.fetchMu.Lock()
	defer n.fetchMu.Unlock()
	n.mu.Lock()

	n.stats.GCPurges++
	var work []pagePlan
	published := map[int]bool{} // home → has it purged the floor
	for _, pg := range n.gcPages {
		if !owesCovered(pg, retire) {
			continue
		}
		// A page owing diffs cannot carry local modifications: its
		// invalidation closed the open interval, freeing the twin.
		if pg.holds() && pg.inDirty {
			panic(fmt.Sprintf("dsm: node %d GC purging page %d with live twin", n.id, pg.id))
		}
		if home := n.homeOf(pg.id); home != n.id && !n.mustKeepLocked(pg, retire) {
			ok, seen := published[home]
			if !seen {
				ok = n.sys.acq.homeCovers(home, retire)
				published[home] = ok
			}
			if ok {
				n.gcFlushPageLocked(pg, retire)
			} else if !slices.Contains(lag, home) {
				lag = append(lag, home)
			}
			continue
		}
		n.useLocked(pg)
		var covered []*interval
		for _, m := range pg.missing {
			if retire.covers(m.creator, m.seq) {
				covered = append(covered, m)
			}
		}
		work = append(work, pagePlan{pg: pg, source: -1, fetch: covered, resolved: covered, merge: true})
	}
	if len(work) == 0 {
		return lag
	}

	// One fetch exchange, like a fault round's — but priced as it always
	// was: the client's clock stops at the latest reply arrival ("the
	// parallel validation sweep") and the inbound-link floor fetchLocked
	// returns is NOT applied. Flooring the wave is a model change, not a
	// simplification (measured: locks8 speedup 2.50 → 1.51, scale64 2.26 →
	// 1.12, paged8 3.89 → 3.82); it is the optimism per-port occupancy in
	// the network model will price.
	entered := c.clk.Now()
	diffs, replies, _, msgs, bytes := c.fetchLocked(work) // servers may run meanwhile

	for i := range work {
		// Exactly the validated notices go; notices newer than the floor
		// (and any that arrived during the network section) stay.
		c.applyFaultLocked(&work[i], diffs)
		n.stats.GCPagesValidated++
	}
	n.sys.pool.put(replies...)
	n.stats.GCWait += c.clk.Now() - entered
	n.stats.GCWaveMsgs += msgs
	n.stats.GCWaveBytes += bytes
	return lag
}
