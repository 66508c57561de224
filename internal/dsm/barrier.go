package dsm

import (
	"repro/internal/network"
	"repro/internal/sim"
)

// Combining-tree barriers, generalizing Section 4.2's centralized manager:
// "Barrier arrivals are modeled as releases and barrier departures are
// acquires." Nodes form a DefaultBarrierFanin-ary heap rooted at node 0.
// Each arrival message piggybacks the arriver's new intervals; an interior node
// gathers its children's arrivals, merges them into its own clock, and
// passes ONE combined arrival up. The root's departure wave flows back
// down the tree, each hop carrying for its receiver exactly the intervals
// it lacks, and every departure carries the root's merged clock — the
// episode's GC floor (see gc.go), identical in every departure.
//
// With the default fan-in of 8 and at most 9 nodes, node 0's children are
// all other nodes and no other node has children: the tree degenerates to
// the paper's flat manager and reproduces its wire traffic byte for byte.

// DefaultBarrierFanin is the barrier tree's fan-in. Eight keeps every
// ≤8-processor run (the paper's full range) on the flat centralized
// barrier.
const DefaultBarrierFanin = 8

// barrierChildren returns the ids gathering at node id in the fanin-ary
// heap over [0, procs).
func barrierChildren(id, procs, fanin int) []int {
	first := id*fanin + 1
	if first >= procs {
		return nil
	}
	last := first + fanin
	if last > procs {
		last = procs
	}
	kids := make([]int, 0, last-first)
	for c := first; c < last; c++ {
		kids = append(kids, c)
	}
	return kids
}

// barrierParent returns the node id reports its arrival to.
func barrierParent(id, fanin int) int { return (id - 1) / fanin }

// routeHop returns the next node on the combining-tree path from `from`
// toward `to` (from != to): the child of `from` whose subtree contains
// `to` when `to` is a descendant, and `from`'s parent otherwise. The
// heap layout makes descendants strictly larger than their ancestors, so
// the descent test is a parent walk from `to`. Tree routing is loop-free:
// every hop strictly ascends toward the lowest common ancestor of the
// endpoints and then strictly descends toward `to`.
func routeHop(from, to, fanin int) int {
	for x := to; x > from; {
		p := barrierParent(x, fanin)
		if p == from {
			return x
		}
		x = p
	}
	return barrierParent(from, fanin)
}

// gatherArrivals awaits one arrival per child (the server routed each
// here, already incorporated in wire order) and returns each child's
// reported clock — needed to compute its exact departure delta — plus the
// latest arrival time.
func (c *Client) gatherArrivals() (arrivals []struct {
	from int
	vc   VectorClock
}, latest sim.Time) {
	for len(arrivals) < c.n.kids {
		m := c.await(routeKey{typ: msgBarrArrive})
		if m.Arrive > latest {
			latest = m.Arrive
		}
		// Only the clock prefix of the trailer is needed here (the server
		// already incorporated the records in wire order); both wire
		// versions encode the clock self-contained, so the prefix decodes
		// alone.
		r := rbuf{b: m.Payload}
		senderVC := getVC(&r)
		arrivals = append(arrivals, struct {
			from int
			vc   VectorClock
		}{from: m.From, vc: senderVC})
	}
	return arrivals, latest
}

// Barrier synchronizes all processors (OpenMP barrier semantics: all
// modifications before the barrier are visible to every thread after it).
// A thread of an island's team first gathers with its mates: the last to
// arrive crosses the network on the island's behalf from the latest
// arrival, then releases the others at the departure plus the island's
// broadcast (Platform.SMPBarrier). Every other island thread is parked
// here meanwhile, so the node is quiescent for the crossing client.
func (c *Client) Barrier() {
	n := c.n
	island := c.inTeam && len(n.team) > 1
	if island {
		n.mu.Lock()
		n.barN++
		n.barMax = max(n.barMax, c.clk.Now())
		if n.barN < len(n.team) {
			n.mu.Unlock()
			c.clk.AdvanceTo(c.await(routeKey{typ: msgBarrDepart, key: c.tag}).Arrive)
			return
		}
		c.clk.AdvanceTo(n.barMax)
		n.barN, n.barMax = 0, 0
		n.mu.Unlock()
	}
	c.crossBarrier()
	if island {
		c.clk.Advance(n.sys.plat.SMPBarrier)
		depart := c.clk.Now()
		for _, mate := range n.team {
			if mate != c {
				mate.note = network.Message{Type: msgBarrDepart, Arrive: depart}
				n.router.deliver(routeKey{typ: msgBarrDepart, key: mate.tag}, &mate.note)
			}
		}
	}
}

// crossBarrier is the barrier between nodes: a leaf's arrival and
// departure, an interior node's gather, combined arrival and forwarded
// departures, the root's gather and departure wave.
func (c *Client) crossBarrier() {
	n := c.n
	procs := n.sys.cfg.Procs
	leaf := n.kids == 0
	func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.stats.Barriers++
		n.closeIntervalLocked()
		if procs > 1 && leaf {
			// Leaf: one arrival up, one departure down. Built and sent
			// under the same mu hold as the interval close — an unlock
			// window here would let the server incorporate records and
			// change the delta.
			n.arriveLocked(c)
		}
	}()
	if procs == 1 {
		return
	}

	if leaf {
		m := c.recvReply(msgBarrDepart, 0)
		r := rbuf{b: m.Payload}
		n.mu.Lock()
		defer n.mu.Unlock()
		depVC := n.takeTrailerLocked(&r, barrierParent(n.id, n.sys.fanin))
		n.episodeLocked(c, depVC)
		return
	}

	// Gather the subtree: one (combined) arrival per child. Virtual time
	// advances to the latest arrival plus sequential per-arrival
	// processing at this node.
	arrivals, latest := c.gatherArrivals()
	c.clk.AdvanceTo(latest)
	c.clk.Advance(sim.Time(len(arrivals)) * n.sys.plat.RequestService)

	if n.id != 0 {
		// Interior node: pass one combined arrival up (its clock now
		// covers the whole subtree — the server incorporated every child's
		// records), wait for the departure, forward it down, then take this
		// node's side of the episode.
		func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.arriveLocked(c)
		}()

		m := c.recvReply(msgBarrDepart, 0)
		r := rbuf{b: m.Payload}
		n.mu.Lock()
		defer n.mu.Unlock()
		depVC := n.takeTrailerLocked(&r, barrierParent(n.id, n.sys.fanin))
		// Forward the wave before collecting: the children (and their
		// subtrees) stay parked until these go out, and the episode's
		// waits for homes end only once every node has made its first
		// pass.
		n.forwardDeparturesLocked(c, depVC, arrivals)
		n.episodeLocked(c, depVC)
		return
	}

	// Root: merge is complete once every child subtree has arrived.
	n.mu.Lock()
	defer n.mu.Unlock()
	// Snapshot the departure clock ONCE, before the send loop's unlock
	// windows: while departures go out, the server can already be
	// incorporating next-barrier arrivals (or sema/flush deltas) from
	// fast departers, and a live n.vc read would hand later departures a
	// larger clock than earlier ones. Pre-GC that was a harmless
	// over-approximation; as the episode's floor it must be identical in
	// every departure (see gc.go).
	depVC := n.vc.clone()
	if co := n.sys.acq; co != nil {
		// The root's merged clock covers every interval in existence: the
		// episode trigger announces it, if the gate and the pressure allow,
		// BEFORE any departure goes out. The root's own purge runs after
		// the departures, off the critical path of every other node.
		co.noteIssued(depVC)
	}
	n.forwardDeparturesLocked(c, depVC, arrivals)
	n.episodeLocked(c, depVC)
}

// arriveLocked sends this node's arrival — its whole subtree's, on an
// interior node — to its barrier parent, under n.mu: the estimate update
// and the send are atomic with respect to other request-class deltas.
func (n *Node) arriveLocked(c *Client) {
	parent := barrierParent(n.id, n.sys.fanin)
	var w wbuf
	putTrailer(&w, &n.trailerBuf, n.vc, n.deltaForLocked(n.knownVC[parent]))
	n.noteSentLocked(parent)
	n.ep.SendAt(parent, msgBarrArrive, network.ClassRequest, w.b, c.clk.Now())
}

// forwardDeparturesLocked sends one departure per gathered arrival,
// carrying the episode's floor clock and, for each receiver, the exact
// delta against its reported arrival clock. Called with n.mu held;
// released around the sends.
func (n *Node) forwardDeparturesLocked(c *Client, depVC VectorClock, arrivals []struct {
	from int
	vc   VectorClock
}) {
	if !n.gcTreeConsensus() {
		// Flat tree (the paper's ≤ fan-in+1 machine): the pinned
		// byte-for-byte path — one plain departure per arrival.
		for _, a := range arrivals {
			var w wbuf
			// Exact delta against the arriver's reported clock; departures
			// are reply-class and therefore never update knownVC. The delta
			// stays live deliberately: records stored by the server mid-loop
			// ride along early (their own clocks raise the receiver), which
			// is sound — only the floor clock must be the snapshot.
			putTrailer(&w, &n.trailerBuf, depVC, n.deltaForLocked(a.vc))
			n.unlocked(func() { n.ep.SendAt(a.from, msgBarrDepart, network.ClassReply, w.b, c.clk.Now()) })
		}
		return
	}
	// Tree mode: build the whole departure wave under ONE
	// mu hold — every child subtree's delta cut from the same snapshot,
	// with no per-send unlock windows for the server to interleave — then
	// send the departures back to back. Dropping the live-delta opportunism
	// is sound: a record a child misses here still reaches it on the next
	// request-class send, whose delta is computed against the unraised
	// knownVC estimate.
	wave := make([][]byte, len(arrivals))
	for i, a := range arrivals {
		var w wbuf
		putTrailer(&w, &n.trailerBuf, depVC, n.deltaForLocked(a.vc))
		wave[i] = w.b
	}
	n.unlocked(func() {
		for i, a := range arrivals {
			n.ep.SendAt(a.from, msgBarrDepart, network.ClassReply, wave[i], c.clk.Now())
		}
	})
}
