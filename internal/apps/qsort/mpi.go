package qsort

import (
	"encoding/binary"
	"sync"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/mpi"
)

// RunMPI executes the message-passing version as a recursive splitter
// tree: the rank holding a segment partitions it, ships the upper half to
// the middle rank of its group, recurses on the lower half with the lower
// sub-group, and receives the sorted upper half back. Leaves run the same
// quicksort/bubble recursion as the sequential code. Data moves with the
// tasks — the message-passing answer to the shared task queue.
func RunMPI(p Params, procs int) (apps.Result, error) {
	world := mpi.New(mpi.Config{Procs: procs, Platform: p.Platform})

	var mu sync.Mutex
	var checksum float64
	sorted := true

	err := world.Run(func(r *mpi.Rank) {
		const tag = 3
		charge := func(ops int) { r.Compute(flopsPerOp * float64(ops)) }

		// solve sorts `data` using ranks [a, b); the caller is rank a.
		var solve func(data []int32, a, b int) []int32
		solve = func(data []int32, a, b int) []int32 {
			if b-a == 1 {
				buf := make([]int32, len(data))
				copy(buf, data)
				sortSlice(buf, p.BubbleThreshold, charge)
				return buf
			}
			mid := a + (b-a)/2
			split, ops := partition(data)
			charge(ops)
			r.Send(mid, tag, i32sBytes(data[split:]))
			low := solve(data[:split], a, mid)
			high := bytesI32s(r.Recv(mid, tag))
			return append(low, high...)
		}

		// serve handles the subtree rooted at this rank (non-root).
		var serve func(a, b int)
		serve = func(a, b int) {
			if b-a == 1 {
				return
			}
			mid := a + (b-a)/2
			if r.ID() == mid {
				data := bytesI32s(r.Recv(a, tag))
				out := solve(data, mid, b)
				r.Send(a, tag, i32sBytes(out))
				return
			}
			if r.ID() < mid {
				serve(a, mid)
			} else {
				serve(mid, b)
			}
		}

		if r.ID() == 0 {
			keys := Input(p)
			r.Compute(2 * float64(p.N))
			out := solve(keys, 0, r.Procs())
			r.Compute(float64(p.N))
			mu.Lock()
			sorted = Sorted(out)
			checksum = Digest(out)
			mu.Unlock()
		} else {
			serve(0, r.Procs())
		}
	})
	if err != nil {
		return apps.Result{}, err
	}
	if !sorted {
		return apps.Result{}, errNotSorted
	}
	msgs, bytes := world.Switch().Stats().Snapshot()
	return apps.Result{Checksum: checksum, Time: world.MaxClock(), Report: dsm.Report{Messages: msgs, Bytes: bytes}}, nil
}

// sortSlice is sortRange over a whole slice.
func sortSlice(a []int32, threshold int, charge func(int)) {
	sortRange(a, 0, len(a), threshold, charge)
}

func i32sBytes(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

func bytesI32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
