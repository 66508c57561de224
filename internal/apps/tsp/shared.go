package tsp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dsm"
)

// Shared-memory layout used by both the OpenMP and TreadMarks versions:
// the pool of partially evaluated tours, the priority queue (binary heap
// of (bound, slot) pairs), the stack of unused pool slots, the current
// shortest path, and the waiting-thread counter — exactly the paper's
// inventory of TSP's major data structures. Every structure is protected
// by the single critical section / lock named "tsp". The accessors take
// a core.Worker, which *dsm.Node and the OpenMP thread context's
// Worker() both satisfy, so one implementation serves every backend.

type sharedTSP struct {
	p        Params
	n        int
	slotsA   dsm.Addr // pool: PoolSlots × slotBytes
	heapA    dsm.Addr // (bound f64, slot i64) pairs
	qSizeA   dsm.Addr // heap size
	freeA    dsm.Addr // free slot stack
	freeTopA dsm.Addr // free stack depth
	bestA    dsm.Addr // current shortest complete tour
	nwaitA   dsm.Addr // threads waiting for work
	slotLen  int
}

// mallocer abstracts dsm.System/core.Program shared allocation.
type mallocer interface {
	MallocPage(size int) dsm.Addr
}

func newSharedTSP(p Params, m mallocer) *sharedTSP {
	n := p.NCities
	s := &sharedTSP{p: p, n: n}
	s.slotLen = 8 + 8 + 8 + 8 + ((n + 7) &^ 7) // pathLen, visited, length, bound, path bytes
	s.slotsA = m.MallocPage(p.PoolSlots * s.slotLen)
	s.heapA = m.MallocPage(16 * p.PoolSlots)
	s.freeA = m.MallocPage(8 * p.PoolSlots)
	// The four scalars live on one page: all are accessed only under the
	// "tsp" critical section, so one fault refreshes them together.
	meta := m.MallocPage(32)
	s.qSizeA = meta
	s.freeTopA = meta + 8
	s.bestA = meta + 16
	s.nwaitA = meta + 24
	return s
}

// initShared is run once by the master before the workers fork.
func (s *sharedTSP) initShared(nd core.Worker, d [][]float64, minInc []float64) {
	free := make([]int64, s.p.PoolSlots)
	for i := range free {
		free[i] = int64(i)
	}
	// Store the free stack via bulk writes (it is just ascending slots).
	buf := make([]byte, 8*len(free))
	for i, v := range free {
		putI64(buf[8*i:], v)
	}
	nd.WriteBytes(s.freeA, buf)
	nd.WriteI64(s.freeTopA, int64(len(free)))
	nd.WriteF64(s.bestA, math.Inf(1))
	nd.WriteI64(s.nwaitA, 0)
	nd.WriteI64(s.qSizeA, 0)

	root := &Tour{Path: []int8{0}, Visited: 1, Length: 0}
	root.Bound = bound(0, 1, minInc, s.n)
	s.pushLocked(nd, root)
}

// allocSlot pops a pool slot from the free stack (caller holds the lock).
func (s *sharedTSP) allocSlot(nd core.Worker) int64 {
	top := nd.ReadI64(s.freeTopA)
	if top == 0 {
		panic(fmt.Sprintf("tsp: tour pool exhausted (%d slots); raise Params.PoolSlots", s.p.PoolSlots))
	}
	slot := nd.ReadI64(s.freeA + dsm.Addr(8*(top-1)))
	nd.WriteI64(s.freeTopA, top-1)
	return slot
}

// freeSlot returns a slot to the stack (caller holds the lock).
func (s *sharedTSP) freeSlot(nd core.Worker, slot int64) {
	top := nd.ReadI64(s.freeTopA)
	nd.WriteI64(s.freeA+dsm.Addr(8*top), slot)
	nd.WriteI64(s.freeTopA, top+1)
}

// writeTour/readTour move a tour between private memory and its pool slot.
func (s *sharedTSP) writeTour(nd core.Worker, slot int64, t *Tour) {
	base := s.slotsA + dsm.Addr(int(slot)*s.slotLen)
	nd.WriteI64(base, int64(len(t.Path)))
	nd.WriteI64(base+8, int64(t.Visited))
	nd.WriteF64(base+16, t.Length)
	nd.WriteF64(base+24, t.Bound)
	pb := make([]byte, len(t.Path))
	for i, c := range t.Path {
		pb[i] = byte(c)
	}
	nd.WriteBytes(base+32, pb)
}

func (s *sharedTSP) readTour(nd core.Worker, slot int64) *Tour {
	base := s.slotsA + dsm.Addr(int(slot)*s.slotLen)
	plen := int(nd.ReadI64(base))
	t := &Tour{
		Visited: uint32(nd.ReadI64(base + 8)),
		Length:  nd.ReadF64(base + 16),
		Bound:   nd.ReadF64(base + 24),
	}
	pb := make([]byte, plen)
	nd.ReadBytes(base+32, pb)
	t.Path = make([]int8, plen)
	for i, b := range pb {
		t.Path[i] = int8(b)
	}
	return t
}

// pushLocked inserts a tour into the shared priority queue (lock held).
func (s *sharedTSP) pushLocked(nd core.Worker, t *Tour) {
	slot := s.allocSlot(nd)
	s.writeTour(nd, slot, t)
	size := nd.ReadI64(s.qSizeA)
	i := size
	nd.WriteF64(s.heapA+dsm.Addr(16*i), t.Bound)
	nd.WriteI64(s.heapA+dsm.Addr(16*i+8), slot)
	for i > 0 {
		parent := (i - 1) / 2
		pb := nd.ReadF64(s.heapA + dsm.Addr(16*parent))
		if pb <= t.Bound {
			break
		}
		ps := nd.ReadI64(s.heapA + dsm.Addr(16*parent+8))
		nd.WriteF64(s.heapA+dsm.Addr(16*i), pb)
		nd.WriteI64(s.heapA+dsm.Addr(16*i+8), ps)
		nd.WriteF64(s.heapA+dsm.Addr(16*parent), t.Bound)
		nd.WriteI64(s.heapA+dsm.Addr(16*parent+8), slot)
		i = parent
	}
	nd.WriteI64(s.qSizeA, size+1)
	nd.Compute(20 * math.Log2(float64(size+2)))
}

// popLocked removes and returns the most promising tour (lock held), or
// nil when the queue is empty. The pool slot is freed immediately (the
// tour is copied to private memory).
func (s *sharedTSP) popLocked(nd core.Worker) *Tour {
	size := nd.ReadI64(s.qSizeA)
	if size == 0 {
		return nil
	}
	slot := nd.ReadI64(s.heapA + 8)
	t := s.readTour(nd, slot)
	s.freeSlot(nd, slot)
	size--
	nd.WriteI64(s.qSizeA, size)
	if size > 0 {
		lb := nd.ReadF64(s.heapA + dsm.Addr(16*size))
		ls := nd.ReadI64(s.heapA + dsm.Addr(16*size+8))
		i := int64(0)
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			sb := lb
			if l < size {
				if b := nd.ReadF64(s.heapA + dsm.Addr(16*l)); b < sb {
					smallest, sb = l, b
				}
			}
			if r < size {
				if b := nd.ReadF64(s.heapA + dsm.Addr(16*r)); b < sb {
					smallest = r
				}
			}
			if smallest == i {
				break
			}
			cb := nd.ReadF64(s.heapA + dsm.Addr(16*smallest))
			cs := nd.ReadI64(s.heapA + dsm.Addr(16*smallest+8))
			nd.WriteF64(s.heapA+dsm.Addr(16*i), cb)
			nd.WriteI64(s.heapA+dsm.Addr(16*i+8), cs)
			i = smallest
		}
		nd.WriteF64(s.heapA+dsm.Addr(16*i), lb)
		nd.WriteI64(s.heapA+dsm.Addr(16*i+8), ls)
	}
	nd.Compute(20 * math.Log2(float64(size+2)))
	return t
}

// worker is the body each thread runs, structured exactly as the paper
// describes: one critical section around dequeue-extend-enqueue, leaf
// solving outside the lock, and a shared nwait counter for termination.
// lockID is the DSM lock implementing the "tsp" critical section.
func (s *sharedTSP) worker(nd core.Worker, lockID int, procs int, d [][]float64, minInc []float64) {
	n := s.n
	waiting := false
	for {
		var task *Tour
		var localBest float64
		done := false

		nd.Acquire(lockID)
		for {
			localBest = nd.ReadF64(s.bestA)
			t := s.popLocked(nd)
			if t == nil {
				break
			}
			if t.Bound >= localBest {
				continue // pruned: a better tour completed since enqueue
			}
			task = t
			break
		}
		if task != nil {
			if waiting {
				waiting = false
				nd.WriteI64(s.nwaitA, nd.ReadI64(s.nwaitA)-1)
			}
			if n-len(task.Path) > s.p.CutoffRemain {
				// Extend by one city and enqueue, inside the same
				// critical section (the paper's TSP structure).
				for _, child := range extend(task, d, minInc, n) {
					nd.Compute(float64(n) * 4)
					if child.Bound < localBest {
						s.pushLocked(nd, child)
					}
				}
				task = nil // nothing to do outside the lock
			}
		} else {
			if !waiting {
				waiting = true
				nd.WriteI64(s.nwaitA, nd.ReadI64(s.nwaitA)+1)
			}
			if nd.ReadI64(s.nwaitA) == int64(procs) {
				done = true
			}
		}
		nd.Release(lockID)

		switch {
		case task != nil:
			improved, nodes := solveLeaf(task, d, localBest, n)
			nd.Compute(leafNodeFlops * float64(nodes))
			if improved < localBest {
				nd.Acquire(lockID)
				if improved < nd.ReadF64(s.bestA) {
					nd.WriteF64(s.bestA, improved)
				}
				nd.Release(lockID)
			}
		case done:
			return
		default:
			// Idle: yield before re-checking the queue. Busy-wait polls
			// charge no virtual time themselves (see dsm.Client.Poll); the
			// idle thread's clock advances when the next lock grant or
			// write notice reaches it.
			nd.Poll()
		}
	}
}
