package dsm

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
)

// serve is each node's protocol-server goroutine: the simulation analogue
// of TreadMarks' SIGIO handler. It processes remote requests concurrently
// with the node's application threads, acting at each request's virtual
// arrival time (interrupt semantics) and charging the node's clock the
// platform's interrupt overhead.
//
// Everything reachable from here runs in protocol-server context, and
// nothing in it waits: sends never block (network inboxes are unbounded),
// and what the server hands to an application thread — a fork or exit, a
// join, a barrier arrival — goes through the node's router, which queues
// it for a thread that is not waiting yet. The tripwire analyzer requires
// the goroutine that runs it to carry a deferred recoverAbort (see
// cmd/nowlint and README "Static analysis").
func (n *Node) serve() {
	for {
		m := n.ep.RecvRaw(network.ClassRequest)
		if m == nil {
			return // switch shut down
		}
		n.dispatch(m)
	}
}

// dispatch routes one request to its handler.
func (n *Node) dispatch(m *network.Message) {
	switch m.Type {
	case msgExit:
		n.router.route(m) // to the slave loop, behind any fork before it
	case msgFork:
		// Incorporate the piggybacked consistency information HERE,
		// in wire order, before handing the fork to the application
		// thread: a semaphore signal or flush right behind this fork
		// in the FIFO may carry a delta that assumes the fork's
		// intervals have already been seen. The fork GC epoch itself
		// runs on the APPLICATION thread (slaveLoop) before the
		// region body: a validating purge fetches diffs over
		// the network, and a server blocked on replies while its
		// peers' servers do the same would deadlock the protocol.
		r := rbuf{b: m.Payload}
		r.view() // region
		r.view() // args
		n.incorporateWire(&r, m.From)
		n.router.route(m)
	case msgJoin:
		r := rbuf{b: m.Payload}
		n.incorporateWire(&r, m.From)
		// The master's application thread sees the region's tail only.
		tail := getJoinTail(&r)
		n.sys.pool.put(m.Payload)
		m.Payload = tail
		n.router.route(m)
	case msgBarrArrive:
		r := rbuf{b: m.Payload}
		n.incorporateWire(&r, m.From)
		n.router.route(m) // to this node's barrier gather
	case msgFetchReq:
		n.handleFetchReq(m)
	case msgAcqReq, msgAcqFwd, msgSemaSignal, msgSemaWait, msgCondWait, msgCondSignal, msgCondBroadcast, msgFlush:
		n.handleSyncReq(m)
	case msgGCSync:
		n.handleGCSync(m)
	default:
		panic(fmt.Sprintf("dsm: node %d: unknown request type %d", n.id, m.Type))
	}
}

// incorporateWire decodes a (vc, records) trailer and merges it into the
// node's knowledge (takeTrailerLocked).
//
// Like every protocol-server path it holds n.mu by defer: a tripwire panic
// under the mutex (incorporateLocked on a gap, here) aborts the run, and
// the node's application thread must still be able to take n.mu to notice
// the abort and unwind — a mutex left locked by the dying handler hangs it,
// and Run with it.
func (n *Node) incorporateWire(r *rbuf, from int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.takeTrailerLocked(r, from)
}

// servePageLocked returns this node's copy of a page for a whole-page
// reply: the home's validated copy, the base of a requester whose own
// copy a collector flush discarded, or a squash creator's, which reflects
// everything the requester has seen of the page (see home.go and
// planFaultLocked). Either way the requester then applies every diff
// still named by its own missing write notices.
func (n *Node) servePageLocked(pid PageID) []byte {
	pg := n.useLocked(n.pageFor(pid))
	if !pg.holds() {
		// Only the page's home may serve a page it never used (its zeros,
		// built above); squashed fetches always target a node that wrote it.
		panic(fmt.Sprintf("dsm: node %d asked for page %d it never held (home %d)", n.id, pid, n.homeOf(pid)))
	}
	return pg.data
}

// serveDiffLocked returns the diff of this node's interval seq for a page
// and the service time the modelled node spends encoding it — one encode
// the first time the diff is needed (payLocked), nothing after.
func (n *Node) serveDiffLocked(pid PageID, seq int) ([]byte, sim.Time) {
	own := n.intervals[n.id]
	idx := seq - n.ivlBase[n.id]
	if idx < 0 {
		// Soundness tripwire: the collector frees an interval's diffs
		// only after no node can reference it again.
		panic(fmt.Sprintf("dsm: node %d asked for diff of retired interval (%d,%d)", n.id, n.id, seq))
	}
	if idx >= len(own) {
		panic(fmt.Sprintf("dsm: node %d asked for diff of unknown interval (%d,%d)", n.id, n.id, seq))
	}
	ivl := own[idx]
	cost := n.payLocked(n.pageFor(pid), ivl)
	if cost > 0 {
		n.stats.DiffsPaid++
	}
	return ivl.diffs[pid], cost
}

// handleFetchReq is the page and diff server: it answers one request of a
// fetch exchange (Client.fetchLocked — a fault round's or a collector wave's)
// with every whole page and diff the requester wants from this node, for
// one interrupt and one reply. The contents are gathered first so the
// reply is sized once, to fit (a page's runs are encoded twice for that),
// and copied into it under n.mu like every other served payload. A diff
// item with later seqs is answered with their merged diff, built in the
// node's scratch: each constituent is paid for as served, and the fold
// costs the server what applying each would have cost the requester.
func (n *Node) handleFetchReq(m *network.Message) {
	r := rbuf{b: m.Payload}
	items := decodeFetch(&r, false)
	n.sys.pool.put(m.Payload)
	plat := n.sys.plat
	service := plat.RequestService
	size := 5                   // reply bound: a count varint, ≤ 14 header bytes an item
	var runs [PageSize + 3]byte // a page's runs against zeros, to size its item
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	// Merged diffs are appended to the scratch: one that regrows it leaves
	// the earlier ones intact in the array they were built in.
	merged := n.diffBuf[:0]
	var parts [][]byte
	for i := range items {
		it := &items[i]
		if it.seq < 0 {
			it.data = n.servePageLocked(it.pid)
			service += plat.PageCopy
			size -= PageSize - min(PageSize, len(appendRuns(runs[:0], it.data, zeroPage[:])))
		} else {
			var cost sim.Time
			it.data, cost = n.serveDiffLocked(it.pid, it.seq)
			service += cost
			if len(it.later) > 0 {
				parts = append(parts[:0], it.data)
				for _, seq := range it.later {
					d, cost := n.serveDiffLocked(it.pid, seq)
					service += cost
					parts = append(parts, d)
				}
				for _, d := range parts {
					service += plat.DiffApply + sim.Time(float64(len(d))*plat.DiffApplyPerByte)
				}
				start := len(merged)
				merged = mergeDiffs(merged, parts)
				it.data = merged[start:]
				n.stats.DiffsMerged += int64(len(it.later))
			}
		}
		size += 14 + len(it.data)
	}
	n.diffBuf = merged
	w := wbuf{b: n.sys.pool.get(size)[:0], pool: &n.sys.pool}
	encodeFetch(&w, items, true)
	n.ep.SendAt(m.From, msgFetchRep, network.ClassReply, w.b, m.Arrive+service)
}
