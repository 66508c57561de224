package lu

import (
	"math"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
)

// tmkPivLock protects the shared minimum-pivot monitor (any id works; the
// protocol places the lock's manager at id mod procs).
const tmkPivLock = 9

// RunTmk executes the hand-coded TreadMarks version: the same
// one-barrier-per-step row factorization written directly against
// Tmk_barrier and Tmk_lock_acquire/Tmk_lock_release, with per-processor
// digest partials combined by node 0 after the last barrier.
func RunTmk(p Params, procs int) (apps.Result, error) {
	n := p.N
	rb := rowBytes(n)
	cfg := p.DSM
	cfg.Procs, cfg.Platform, cfg.HeapBytes = procs, p.Platform, heapFor(n)
	sys := dsm.New(cfg)
	defer sys.Close()
	mat := sys.MallocPage(rb * n)
	pivA := sys.MallocPage(dsm.PageSize)
	digPart := sys.MallocPage(dsm.PageSize * procs)
	out := sys.MallocPage(8)

	sys.Register("lu-main", func(nd *dsm.Node, _ []byte) {
		me := nd.ID()
		lo, hi := core.StaticBlock(0, n, me, procs)
		rows := readBlock(nd, mat, n, lo, hi)

		myMin := math.MaxFloat64
		pivot := make([]float64, n)
		for k := 0; k < n; k++ {
			if k >= lo && k < hi {
				nd.WriteF64s(rowAddr(mat, rb, k), rows[k-lo])
				if mag := math.Abs(rows[k-lo][k]); mag < myMin {
					myMin = mag
				}
			}
			nd.Barrier()
			nd.ReadF64s(rowAddr(mat, rb, k), pivot)
			start := k + 1
			if lo > start {
				start = lo
			}
			for i := start; i < hi; i++ {
				UpdateRow(rows[i-lo], pivot, k)
			}
			if cnt := hi - start; cnt > 0 {
				nd.Compute(float64(cnt) * ElimFlops(k, n))
			}
		}

		nd.Acquire(tmkPivLock)
		if cur := nd.ReadF64(pivA); myMin < cur {
			nd.WriteF64(pivA, myMin)
		}
		nd.Release(tmkPivLock)

		var digest float64
		for _, row := range rows {
			digest += DigestRows(row, n, 0, 1)
		}
		nd.WriteF64(digPart+dsm.Addr(dsm.PageSize*me), digest)
		nd.Compute(flopsPerDigest * float64((hi-lo)*n))
		nd.Barrier()
		if me == 0 {
			var total float64
			for t := 0; t < procs; t++ {
				total += nd.ReadF64(digPart + dsm.Addr(dsm.PageSize*t))
			}
			nd.WriteF64(out, Checksum(total, nd.ReadF64(pivA)))
		}
	})

	var checksum float64
	err := sys.Run(func(nd *dsm.Node) {
		a := InitMatrix(p)
		writeMatrix(nd, mat, a, n)
		nd.WriteF64(pivA, math.MaxFloat64)
		nd.Compute(flopsPerInit * float64(n*n))
		nd.RunParallel("lu-main", nil)
		checksum = nd.ReadF64(out)
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: sys.MaxClock(), Report: sys.Report()}, nil
}
