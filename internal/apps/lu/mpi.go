package lu

import (
	"math"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
	"repro/internal/mpi"
)

// RunMPI executes the message-passing version: every rank keeps its
// contiguous block of rows privately and the pivot row travels in a
// broadcast from its owner each step — data and synchronization move
// together, so MPI sends one message tree per step where the DSM versions
// fault pages individually.
func RunMPI(p Params, procs int) (apps.Result, error) {
	n := p.N
	world := mpi.New(mpi.Config{Procs: procs, Platform: p.Platform})

	var mu sync.Mutex
	var checksum float64

	err := world.Run(func(r *mpi.Rank) {
		me, np := r.ID(), r.Procs()
		lo, hi := core.StaticBlock(0, n, me, np)

		a := InitRows(p, lo, hi) // deterministic: the full matrix's rows [lo, hi)
		rows := make([][]float64, hi-lo)
		for i := range rows {
			rows[i] = a[i*n : (i+1)*n]
		}
		r.Compute(flopsPerInit * float64(n*n) / float64(np))

		owner := func(k int) int {
			for t := 0; t < np; t++ {
				tlo, thi := core.StaticBlock(0, n, t, np)
				if k >= tlo && k < thi {
					return t
				}
			}
			return np - 1
		}

		myMin := math.MaxFloat64
		recvd := make([]float64, n) // the pivot rows other ranks own land here
		for k := 0; k < n; k++ {
			root := owner(k)
			var pivot []float64
			var payload []byte
			if root == me {
				pivot = rows[k-lo]
				if mag := math.Abs(pivot[k]); mag < myMin {
					myMin = mag
				}
				payload = mpi.F64sToBytes(pivot)
			}
			if got := r.Bcast(root, payload); root != me {
				pivot = mpi.DecodeF64s(recvd, got)
			}
			start := k + 1
			if lo > start {
				start = lo
			}
			for i := start; i < hi; i++ {
				UpdateRow(rows[i-lo], pivot, k)
			}
			if cnt := hi - start; cnt > 0 {
				r.Compute(float64(cnt) * ElimFlops(k, n))
			}
		}

		var digest float64
		for _, row := range rows {
			digest += DigestRows(row, n, 0, 1)
		}
		r.Compute(flopsPerDigest * float64((hi-lo)*n))
		sums := r.Reduce(mpi.OpSum, []float64{digest})
		mins := r.Reduce(mpi.OpMin, []float64{myMin})
		if me == 0 {
			mu.Lock()
			checksum = Checksum(sums[0], mins[0])
			mu.Unlock()
		}
	})
	if err != nil {
		return apps.Result{}, err
	}
	msgs, bytes := world.Switch().Stats().Snapshot()
	return apps.Result{Checksum: checksum, Time: world.MaxClock(), Report: dsm.Report{Messages: msgs, Bytes: bytes}}, nil
}
