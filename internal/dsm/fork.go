package dsm

import (
	"repro/internal/network"
)

// This file implements the Tmk_fork / Tmk_join primitives "specifically
// tailored to the fork-join style of parallelism expected by OpenMP"
// (Section 4.1). All threads exist for the whole run; during sequential
// execution the slaves block waiting for the next fork from the master.

// RunParallel forks the named region on every slave, runs it on the master
// too, and joins. The arg bytes carry the serialized firstprivate
// environment (pointers to shared variables and copied initial values, as
// in Section 4.3.2). Fork counts as a release by the master and an acquire
// by each slave; join is the reverse, so the master sees all slave writes
// after RunParallel returns. It returns each node's region result (see
// RegisterTail), indexed by node.
func (c *Client) RunParallel(region string, arg []byte) [][]byte {
	n := c.n
	if n.id != 0 {
		panic("dsm: RunParallel must be called by the master (node 0)")
	}
	fn := n.sys.region(region)
	procs := n.sys.cfg.Procs

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
			var w wbuf
			w.str(region)
			w.bytes(arg)
			putTrailer(&w, &n.trailerBuf, forkVC, n.deltaForLocked(n.knownVC[i]))
			n.noteSentLocked(i)
			// Sent under mu: atomic with the estimate update.
			n.ep.SendAt(i, msgFork, network.ClassRequest, w.b, c.clk.Now())
		}
		n.episodeLocked(c, forkVC)
	}()

	// The master is thread 0 of the team.
	tails := make([][]byte, procs)
	tails[0] = fn(n, arg)

	// Join: collect every slave's release.
	n.mu.Lock()
	n.closeIntervalLocked()
	n.mu.Unlock()
	for i := 1; i < procs; i++ {
		var m *network.Message
		select {
		case m = <-n.joinCh:
		case <-n.sys.done:
		}
		if m == nil {
			panic(abortError{cause: "switch shut down"})
		}
		// Consistency information was already incorporated by the
		// protocol server, in wire order, which left only the tail; the
		// join here synchronizes time.
		c.clk.AdvanceTo(m.Arrive)
		tails[m.From] = m.Payload
	}
	return tails
}

// slaveLoop is the application thread of nodes 1..P-1: block for a fork,
// run the region, send the join, repeat until exit.
func (n *Node) slaveLoop() {
	for {
		var m *network.Message
		select {
		case m = <-n.forkCh:
		case <-n.sys.done:
		}
		if m == nil {
			panic(abortError{cause: "switch shut down"})
		}
		if m.Type == msgExit {
			n.clock.AdvanceTo(m.Arrive)
			return
		}
		n.clock.AdvanceTo(m.Arrive)
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
		forkVC := getVC(&r)
		func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.episodeLocked(&n.thread, forkVC)
		}()
		fn := n.sys.region(region)
		tail := fn(n, arg)

		func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.closeIntervalLocked()
			var w wbuf
			putJoin(&w, &n.trailerBuf, n.vc, n.deltaForLocked(n.knownVC[0]), tail)
			n.noteSentLocked(0)
			// Sent under mu: atomic with the estimate update.
			n.ep.Send(0, msgJoin, network.ClassRequest, w.b)
		}()
	}
}
