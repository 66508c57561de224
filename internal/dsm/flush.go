package dsm

import (
	"repro/internal/network"
)

// Flush implements the OpenMP flush directive the paper argues should be
// removed (Section 3.2.3): "Without knowing which thread is waiting for
// the condition, the flushing thread has to notify all other threads of
// its modifications to the shared memory. For n threads a total of
// 2(n-1) messages are sent, half of which are used for acknowledgments.
// Most of these messages are redundant and numerous threads are
// interrupted unnecessarily."
//
// It is retained here so the ablation experiments can measure exactly that
// cost against the proposed semaphores and condition variables. A client
// NewClient added holds the node's engine lock throughout: the
// acknowledgments route by type alone and come from remote servers, never
// from island-mates.
func (c *Client) Flush() {
	n := c.n
	if c.tag != 0 {
		n.eng.Lock()
		defer n.eng.Unlock()
	}
	procs := n.sys.cfg.Procs
	func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.stats.Flushes++
		n.closeIntervalLocked()
		for j := 0; j < procs; j++ {
			if j == n.id {
				continue
			}
			var w wbuf
			putTrailer(&w, &n.trailerBuf, n.vc, n.deltaForLocked(n.knownVC[j]))
			n.noteSentLocked(j)
			// Sent under mu: atomic with the estimate update.
			n.ep.SendAt(j, msgFlush, network.ClassRequest, w.b, c.clk.Now())
		}
	}()
	if procs == 1 {
		return
	}
	for i := 0; i < procs-1; i++ {
		c.recvReply(msgFlushAck, 0)
	}
	c.gcSyncHook(true)
}

// handleFlush runs on every other node's protocol server: incorporate the
// pushed write notices (invalidating pages) and acknowledge. The
// incorporation is what lets a busy-wait reader eventually observe the
// flushed value; the interrupt charge is the "unnecessary disturbance" of
// uninvolved nodes.
func (n *Node) handleFlush(m *network.Message) {
	r := rbuf{b: m.Payload}
	at := m.Arrive + n.sys.plat.RequestService
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chargeInterruptLocked()
	n.takeTrailerLocked(&r, m.From)
	n.ep.SendAt(m.From, msgFlushAck, network.ClassReply, nil, at)
}
