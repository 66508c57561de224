package sweep3d

import "repro/internal/core"

// Pipeline plumbing shared by the OpenMP, TreadMarks, and MPI versions.

const (
	maxXBlocks    = 64
	maxAngleBlk   = 8
	semFamilyData = 0 // boundary-available semaphore ("available" in Fig. 3)
	semFamilyFree = 1 // slot-reusable semaphore ("done" in Fig. 3)
)

// semID names a boundary slot's data or free semaphore and places it on the
// node of the one thread that waits on it: the consumer for a data
// semaphore, the producer for a free one.
//
// The DSM manages semaphore id on node id mod P, Section 4.2's "statically
// assigned manager". The id is key·procs + waiter, so the manager is the
// waiter's own node. A wait never leaves its node: a banked signal costs no
// message, and otherwise the node's server grants its own thread. A signal
// is one request and one acknowledgment straight to the waiter's node. With
// the key alone as the id, the producer·2048 high part vanished modulo any
// P that divides 2048, so the manager was fixed by angle block, direction
// and family: at P = 8 two nodes managed every free semaphore, at P = 32
// eight nodes managed the whole pipeline, and every hand-off went signal →
// third-party manager → grant.
//
// The data semaphore must be keyed by the sweep direction as well as the
// producer: octants alternate the pipeline direction, so the downstream
// consumer of thread t is t+1 in half the octants and t-1 in the other
// half. Without the direction in the key, pipeline skew across octants
// (there is no barrier between them) lets the two consumers wait on the
// same semaphore and steal each other's signals — a deadlock.
//
// The free semaphore (slot-reuse handshake) is deliberately keyed without
// direction: it counts "slot consumed" events for the producer's slot no
// matter which neighbour consumed it, so a producer never overwrites a
// plane that has not been read.
func semID(producer, xb, ab, dir, family, waiter, procs int) int {
	key := ((((producer*maxXBlocks+xb)*maxAngleBlk+ab)*2)+dir)*2 + family
	return key*procs + waiter
}

// dirOf maps a y sweep sign to the semaphore direction bit.
func dirOf(sy int) int {
	if sy > 0 {
		return 0
	}
	return 1
}

// slotIndex enumerates boundary slots for shared-memory layout.
func slotIndex(producer, xb, ab, nxb, nab int) int {
	return (producer*nxb+xb)*nab + ab
}

// neighbours returns the upstream and downstream thread of `me` for an
// octant sweeping the y axis in direction sy (-1 if none).
func neighbours(me, procs, sy int) (up, down int) {
	if sy > 0 {
		up, down = me-1, me+1
	} else {
		up, down = me+1, me-1
	}
	if up < 0 || up >= procs {
		up = -1
	}
	if down < 0 || down >= procs {
		down = -1
	}
	return
}

// slabOrder returns this thread's y indices in sweep order.
func slabOrder(ny, sy, me, procs int) (ys []int, ylo int) {
	lo, hi := core.StaticBlock(0, ny, me, procs)
	ys = make([]int, 0, hi-lo)
	if sy > 0 {
		for j := lo; j < hi; j++ {
			ys = append(ys, j)
		}
	} else {
		for j := hi - 1; j >= lo; j-- {
			ys = append(ys, j)
		}
	}
	return ys, lo
}

// validate panics early on configurations the fixed id spaces cannot hold.
func validate(p Params) {
	nxb := (p.NX + p.BlockX - 1) / p.BlockX
	nab := (p.Angles + p.AngleBlock - 1) / p.AngleBlock
	if nxb > maxXBlocks || nab > maxAngleBlk {
		panic("sweep3d: too many pipeline blocks for the semaphore id space")
	}
}
