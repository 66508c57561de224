package dsm

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
//
// The flush is the round's request sent to every other node, whose server
// takes the pushed write notices (invalidating pages) and acknowledges.
// The incorporation is what lets a busy-wait reader eventually observe the
// flushed value; the interrupt charge is the "unnecessary disturbance" of
// uninvolved nodes.
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
			if j != n.id {
				c.requestLocked(msgFlush, j, syncReq{})
			}
		}
	}()
	for range procs - 1 {
		n.sys.pool.put(c.recvReply(msgFlushAck, 0).Payload)
	}
	c.gcSyncHook(true)
}
