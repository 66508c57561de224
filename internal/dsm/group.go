package dsm

import (
	"cmp"
	"slices"
)

// Page groups: a fault round also fetches the stale pages its thread
// faulted on together last time — the dynamic page groups of Amza, Cox,
// Rajamani and Zwaenepoel (PPoPP '97), the run-time side of the Validate
// aggregation of Dwarkadas, Cox and Zwaenepoel (ASPLOS '96).
//
// Each client records the pages its fault rounds fetch during one
// synchronization episode of its node: the span between two barrier
// departures or forks (Node.episode, counted whether or not the collector
// runs). A join is no boundary, so the master's sequential code after it
// belongs to the region it closes. At the client's first fault round in a
// later episode the record closes into a group. From then on a round on any
// page of a group also plans every other page of it that is stale — holds
// missing notices, or lost its copy to a collector flush — so a group page
// nobody rewrote costs nothing. Groups are the thread's own, not the
// node's: on an SMP island a thread must not fetch its mates' pages on its
// own clock. A thread holding a lock adds no group pages, so a lock's data
// stays the pages faulted under it.

// episodeLocked is this node's side of a barrier departure or fork whose
// clock `at` it has just incorporated: a new episode for the page groups
// and, with the collector on, for the collector (gcEpisodeLocked).
func (n *Node) episodeLocked(c *Client, at VectorClock) {
	n.episode++
	if n.sys.acq != nil {
		n.gcEpisodeLocked(c, at)
	}
}

// pageGroup is one grouped page's index entry: its latest group.
type pageGroup struct {
	pid PageID
	g   int32
}

// closeGroupLocked closes the record of an episode the node has left into
// a group — sorted, deduplicated, each page indexed to it — and starts the
// current episode's record.
func (c *Client) closeGroupLocked() {
	if c.epoch == c.n.episode {
		return
	}
	c.epoch = c.n.episode
	slices.Sort(c.record)
	rec := slices.Compact(c.record)
	c.record = c.record[:0]
	if len(rec) < 2 {
		return
	}
	g := int32(len(c.groups))
	c.groups = append(c.groups, slices.Clone(rec))
	for _, pid := range rec {
		c.grouped = append(c.grouped, pageGroup{pid, g})
	}
	// By page, latest group first; keep only that one.
	slices.SortFunc(c.grouped, func(a, b pageGroup) int { return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(b.g, a.g)) })
	c.grouped = slices.CompactFunc(c.grouped, func(a, b pageGroup) bool { return a.pid == b.pid })
}

// recordLocked notes a page a fault round fetched. A record about to grow
// is compacted first, so a long episode holds each page about once.
func (c *Client) recordLocked(pid PageID) {
	if len(c.record) == cap(c.record) {
		slices.Sort(c.record)
		c.record = slices.Compact(c.record)
	}
	c.record = append(c.record, pid)
}

// groupPagesLocked returns what the groups of a round's faulting pages add
// to the round: every other page of those groups that is stale — it holds
// missing notices, or the collector flushed its copy.
func (c *Client) groupPagesLocked(pgs []*page) []*page {
	if len(c.held) > 0 || len(c.grouped) == 0 {
		return nil
	}
	var extra []*page
	var used []int32
	for _, pg := range pgs {
		i, ok := slices.BinarySearchFunc(c.grouped, pg.id, func(e pageGroup, pid PageID) int { return cmp.Compare(e.pid, pid) })
		if !ok || slices.Contains(used, c.grouped[i].g) {
			continue
		}
		g := c.grouped[i].g
		used = append(used, g)
		for _, pid := range c.groups[g] {
			if xp := c.n.pageFor(pid); (len(xp.missing) > 0 || xp.refetch) && !slices.Contains(pgs, xp) &&
				(len(used) == 1 || !slices.Contains(extra, xp)) {
				extra = append(extra, xp)
			}
		}
	}
	return extra
}
