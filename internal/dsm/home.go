package dsm

import "sync"

// Page homes: sharded initial ownership of the shared address space.
//
// Early revisions made node 0 the allocator, the sole first-copy page
// server, and the always-validate node of every GC purge — faithful to
// the paper's ≤8-processor runs, but a structural hotspot past them:
// every cold fault in the system serialized through one server, and
// every flush decision hinged on one node's purge progress. Ownership is
// now sharded block-cyclically: each page has a HOME node that
// materializes its zero-filled initial copy on demand, serves first
// copies, always validates (never flushes) its own pages at collection
// epochs, and is the node every post-flush refetch rebuilds from.
//
// The GC flush-safety invariant generalizes from "node 0 purges first"
// to a per-page rule: a node may FLUSH a stale copy (dropping its
// covered write notices) only when the page's home has already purged
// the epoch floor — the home's copy then reflects every write under it,
// so a later whole-page refetch cannot lose the dropped notices. Nodes
// learn home purge progress from the System-level homePurged registry
// (the simulation stand-in for an acknowledgment bit on the consensus
// messages that already flow); when the home lags, the purge VALIDATES
// instead, which is always sound — covered diffs stay fetchable until
// the one-epoch-delayed free — and a copy that was never materialized
// validates from zeros (zeros plus every covered diff applied in causal
// order IS the floor contents: allocation zero-fills, and every write
// since lives in some interval's diff).

// HomeBlockPages is the block size of the home layout, in pages: homes are
// assigned in blocks of this many pages, round-robin across nodes, so
// contiguous arrays shard evenly and neighbouring pages keep one server.
const HomeBlockPages = 8

// homeOf returns the page's home node.
func (n *Node) homeOf(pid PageID) int { return (int(pid) / HomeBlockPages) % n.sys.cfg.Procs }

// isHome reports whether this node homes the page.
func (n *Node) isHome(pid PageID) bool { return n.homeOf(pid) == n.id }

// homePurged tracks, per node, the merged floor of every collection epoch
// the node has completed — the registry behind the per-page flush gate.
// Its mutex is a leaf (like the acquire coordinator's): it is taken with
// n.mu held, inside gcCollectLocked, and never takes any other lock.
type homePurged struct {
	mu     sync.Mutex
	floors []VectorClock
}

func newHomePurged(procs int) *homePurged {
	h := &homePurged{floors: make([]VectorClock, procs)}
	for i := range h.floors {
		h.floors[i] = newVC(procs)
	}
	return h
}

// note records that node id completed a purge to the given floor. Called
// inside gcCollectLocked immediately after the purge, so the registry
// never runs ahead of the node's actual page state.
func (h *homePurged) note(id int, floor VectorClock) {
	h.mu.Lock()
	h.floors[id].merge(floor)
	h.mu.Unlock()
}

// covers reports whether the home has completed a purge covering floor:
// its copies of its own pages then reflect every write under it (homes
// always validate their own pages), so peers may flush theirs.
func (h *homePurged) covers(home int, floor VectorClock) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return floor.dominatedBy(h.floors[home])
}
