package dsm

import (
	"repro/internal/network"
)

// This file implements the Tmk_fork / Tmk_join primitives "specifically
// tailored to the fork-join style of parallelism expected by OpenMP"
// (Section 4.1). All threads exist for the whole run; during sequential
// execution the slaves block waiting for the next fork from the master.
// On an island the node's thread takes the fork for its whole team, hands
// it to each island-mate and gathers their results before it joins.

// RunParallel forks the named region on every slave, runs it on the master
// too, and joins. The arg bytes carry the serialized firstprivate
// environment (pointers to shared variables and copied initial values, as
// in Section 4.3.2). Fork counts as a release by the master and an acquire
// by each slave; join is the reverse, so the master sees all slave writes
// after RunParallel returns. It returns each node's region result (see
// RegisterTail), indexed by node; an island's is its threads' results
// concatenated in thread order. An island master first pays the fork's
// dispatch to the island's threads (Platform.SMPFork).
func (c *Client) RunParallel(region string, arg []byte) [][]byte {
	n := c.n
	if n.id != 0 {
		panic("dsm: RunParallel must be called by the master (node 0)")
	}
	fn := n.sys.region(region)
	procs := n.sys.cfg.Procs
	if len(n.team) > 0 {
		c.clk.Advance(n.sys.plat.SMPFork)
	}

	// Fork: release + broadcast. A fork is a global synchronization
	// episode exactly like a barrier (every slave is parked awaiting it,
	// and the join proved the master has incorporated everything), so it
	// is also a GC trigger — this is what keeps parallel-do programs,
	// which synchronize by region boundary rather than explicit
	// barriers, from accumulating protocol metadata across regions.
	func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.closeIntervalLocked()
		forkVC := n.vc.clone() // one clock for the GC floor and every fork message
		if co := n.sys.acq; co != nil {
			co.noteIssued(forkVC)
		}
		for i := 1; i < procs; i++ {
			w := wbuf{pool: &n.sys.pool}
			w.str(region)
			w.bytes(arg)
			putTrailer(&w, forkVC, n.deltaForLocked(n.knownVC[i]))
			n.noteSentLocked(i)
			// Sent under mu: atomic with the estimate update.
			n.ep.SendAt(i, msgFork, network.ClassRequest, w.b, c.clk.Now())
		}
		n.episodeLocked(c, forkVC)
	}()

	// The master's node is thread 0 of the team.
	tails := make([][]byte, procs)
	tails[0] = n.runRegion(c, fn, region, arg)

	// Join: collect every slave's release.
	n.mu.Lock()
	n.closeIntervalLocked()
	n.mu.Unlock()
	for i := 1; i < procs; i++ {
		m := c.await(routeKey{typ: msgJoin})
		// Consistency information was already incorporated by the
		// protocol server, in wire order, which left only the tail; the
		// join here synchronizes time.
		c.clk.AdvanceTo(m.Arrive)
		tails[m.From] = m.Payload
	}
	return tails
}

// runRegion runs one region on every thread of the node — the calling
// thread c of a classic node, or the node's team — and returns their
// results in thread order. The calling goroutine runs the team's first
// thread; the others start when the island has the fork: at the node's
// clock (its fork arrival and fork episode) or at the first thread's,
// if later (the master's). The island, node clock included, finishes with
// its last thread.
func (n *Node) runRegion(c *Client, fn func(*Client, []byte) []byte, region string, arg []byte) []byte {
	if len(n.team) == 0 {
		return fn(c, arg)
	}
	first, mates := n.team[0], n.mates()
	at := max(n.clock.Now(), first.clk.Now())
	if len(mates) > 0 {
		var w wbuf // shared by the mates: not the pool's
		w.str(region)
		w.bytes(arg)
		for _, mate := range mates {
			n.router.deliver(routeKey{typ: msgFork, key: mate.tag}, &network.Message{Type: msgFork, Payload: w.b, Arrive: at})
		}
	}
	first.clk.AdvanceTo(at)
	tail := fn(first, arg)
	last := first.clk.Now()
	for _, mate := range mates {
		m := first.await(routeKey{typ: msgJoin, key: mate.tag})
		last = max(last, m.Arrive)
		tail = append(tail, m.Payload...)
	}
	first.clk.AdvanceTo(last)
	n.clock.AdvanceTo(last)
	return tail
}

// mateLoop is the application thread of an island-mate, every team
// thread but the first: take a fork from the node's thread, run the
// region from the fork time, hand back the result at the finish time,
// repeat until exit.
func (c *Client) mateLoop() {
	n := c.n
	for {
		m := c.await(routeKey{typ: msgFork, key: c.tag})
		if m.Type == msgExit {
			return
		}
		c.clk.AdvanceTo(m.Arrive)
		r := rbuf{b: m.Payload}
		fn := n.sys.region(r.str())
		tail := fn(c, r.bytes())
		n.router.deliver(routeKey{typ: msgJoin, key: c.tag}, &network.Message{From: n.id, Type: msgJoin, Payload: tail, Arrive: c.clk.Now()})
	}
}

// mates returns the team threads beyond the first: each runs mateLoop on
// its own goroutine.
func (n *Node) mates() []*Client {
	if len(n.team) < 2 {
		return nil
	}
	return n.team[1:]
}

// exitTeam ends the node's island-mates' loops.
func (n *Node) exitTeam() {
	for _, mate := range n.mates() {
		n.router.deliver(routeKey{typ: msgFork, key: mate.tag}, &network.Message{Type: msgExit})
	}
}

// slaveLoop is the application thread of nodes 1..P-1: await a fork, run
// the region on the node's threads, send the join, repeat until exit.
func (n *Node) slaveLoop() {
	for {
		m := n.thread.await(routeKey{typ: msgFork})
		n.clock.AdvanceTo(m.Arrive)
		if m.Type == msgExit {
			n.exitTeam()
			return
		}
		r := rbuf{b: m.Payload}
		region := r.str()
		arg := r.bytes()
		// The consistency trailer was already incorporated by the
		// protocol server, in wire order; this is the node's side of the
		// fork episode. It runs here, on the application thread, so a
		// validating purge can fetch diffs without blocking this node's
		// protocol server.
		// Clock prefix only: the clock is encoded self-contained ahead of
		// the records.
		forkVC := getVC(&r, nil)
		n.sys.pool.put(m.Payload)
		func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.episodeLocked(&n.thread, forkVC)
		}()
		tail := n.runRegion(&n.thread, n.sys.region(region), region, arg)

		func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.closeIntervalLocked()
			w := wbuf{pool: &n.sys.pool}
			putJoin(&w, n.vc, n.deltaForLocked(n.knownVC[0]), tail)
			n.noteSentLocked(0)
			// Sent under mu: atomic with the estimate update.
			n.ep.Send(0, msgJoin, network.ClassRequest, w.b)
		}()
	}
}
