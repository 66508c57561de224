package dsm

import "fmt"

// Page homes: sharded ownership of the collector's authoritative copies.
//
// Early revisions made node 0 the allocator, the sole first-copy page
// server, and the always-validate node of every GC purge — faithful to
// the paper's ≤8-processor runs, but a structural hotspot past them.
// Ownership is now sharded block-cyclically: each page has a HOME node
// whose copy exists from allocation (zeros, never faulted in), always
// validates (never flushes) at collection epochs, and is the node every
// post-flush refetch rebuilds from.
//
// The home is NOT a stop on the data path. A node touching a page it never
// held starts from local zeros and applies the diffs its own write notices
// name (zeroFillLocked, below): a first touch of an untouched page moves
// no byte, and a first touch of a written page asks the writers. Only a
// copy the collector flushed — whose dropped notices survive nowhere but
// in the home's validated copy — goes back to the home, whole: the home is
// then one more source of the fault round's (or validation wave's) single
// fetch exchange, asked for the page beside the writers asked for diffs.
//
// The GC flush-safety invariant is a per-page rule: a node may FLUSH a
// stale copy (dropping its covered write notices) only when the page's
// home has already purged the epoch floor — the home's copy then reflects
// every write under it, so a later whole-page refetch cannot lose the
// dropped notices. Nodes learn home purge progress from the collector's
// home registry (acqCoord.homes, the simulation stand-in for an
// acknowledgment bit on the consensus messages that already flow); while
// the home lags, the copy WAITS as it is, notices and all, and its node
// withholds its epoch acknowledgment — so the covered diffs stay
// fetchable, and a fault on the page stays an ordinary fault — until the
// home has published (acqEpochLocked).

// HomeBlockPages is the block size of the home layout, in pages: homes are
// assigned in blocks of this many pages, round-robin across nodes, so
// contiguous arrays shard evenly and neighbouring pages keep one server.
const HomeBlockPages = 8

// homeOf returns the page's home node.
func (n *Node) homeOf(pid PageID) int { return (int(pid) / HomeBlockPages) % n.sys.cfg.Procs }

// isHome reports whether this node homes the page.
func (n *Node) isHome(pid PageID) bool { return n.homeOf(pid) == n.id }

// zeroFillLocked materializes a copy this node never held from the page's
// allocation contents — zeros. It is the one place the zeros rule lives
// (the home's initial copy in pageFor, the fault plan, the page server and
// the GC validation wave all come here), and it rests on one invariant:
//
//	pg.data == nil && !pg.refetch ⇒ every write notice this node ever
//	incorporated for the page is still in pg.missing.
//
// It has two writers: invalidateLocked appends every incorporated notice,
// and gcFlushPageLocked — the only code that drops a notice without
// applying its diff — marks the copy refetch. So zeros plus pg.missing
// applied in causal order IS this node's view of the page (allocation
// zero-fills, and every write since lives in some interval's diff); with
// nothing missing the copy is current at once. Its second reader is
// seenVC, which a page in this state does not keep: pg.missing's merge is
// its value (keepSeenLocked). Requires n.mu.
func (n *Node) zeroFillLocked(pg *page) {
	if pg.data != nil || pg.refetch {
		panic(fmt.Sprintf("dsm: node %d zero-filling page %d that has a copy or a flushed history", n.id, pg.id))
	}
	pg.data = n.sys.pool.get(PageSize)
	clear(pg.data)
	n.keepSeenLocked(pg)
	if pg.state == pageInvalid && len(pg.missing) == 0 {
		pg.state = pageReadOnly
	}
}
