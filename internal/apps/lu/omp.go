package lu

import (
	"math"

	"repro/internal/apps"
	"repro/internal/core"
)

// RunOMP executes the OpenMP version on the NOW (TreadMarks) backend.
func RunOMP(p Params, procs int) (apps.Result, error) {
	return RunOMPOn(p, procs, core.BackendNOW)
}

// RunOMPOn executes the OpenMP version on the given core backend — the
// source is backend-neutral. One coarse parallel region in which
// each thread factors its contiguous block of rows. Step k is ordered by a
// barrier between the owner publishing the pivot row and everyone reading
// it; the minimum-pivot monitor is merged under a named critical section
// and the checksum digest through a scalar reduction — the lock/barrier
// synchronization mix of the SPLASH-2 kernel.
func RunOMPOn(p Params, procs int, backend core.BackendKind) (apps.Result, error) {
	n := p.N
	rb := rowBytes(n)
	prog := core.NewProgram(core.Config{Threads: procs, Platform: p.Platform, HeapBytes: heapFor(n), Backend: backend, DSM: p.DSM})
	defer prog.Close()
	mat := prog.SharedPage(rb * n)
	pivA := prog.SharedPage(core.PageSize) // min |pivot|, lock-protected
	digestRed := prog.NewReduction(core.OpSum)

	prog.RegisterRegion("lu", func(tc *core.TC) {
		nd := tc.Worker()
		lo, hi := core.StaticBlock(0, n, tc.ThreadNum(), procs)
		rows := readBlock(nd, mat, n, lo, hi)

		myMin := math.MaxFloat64
		pivot := make([]float64, n)
		for k := 0; k < n; k++ {
			if k >= lo && k < hi {
				// Row k is final: publish it and observe its pivot.
				nd.WriteF64s(rowAddr(mat, rb, k), rows[k-lo])
				if mag := math.Abs(rows[k-lo][k]); mag < myMin {
					myMin = mag
				}
			}
			tc.Barrier()
			nd.ReadF64s(rowAddr(mat, rb, k), pivot)
			start := k + 1
			if lo > start {
				start = lo
			}
			for i := start; i < hi; i++ {
				UpdateRow(rows[i-lo], pivot, k)
			}
			if cnt := hi - start; cnt > 0 {
				tc.Compute(float64(cnt) * ElimFlops(k, n))
			}
		}

		tc.Critical("lu-pivot", func() {
			if cur := nd.ReadF64(pivA); myMin < cur {
				nd.WriteF64(pivA, myMin)
			}
		})
		var digest float64
		for _, row := range rows {
			digest += DigestRows(row, n, 0, 1)
		}
		digestRed.Reduce(tc, digest)
		tc.Compute(flopsPerDigest * float64((hi-lo)*n))
	})

	var checksum float64
	err := prog.Run(func(m *core.MC) {
		a := InitMatrix(p)
		writeMatrix(m.Worker(), mat, a, n)
		m.WriteF64(pivA, math.MaxFloat64)
		m.Compute(flopsPerInit * float64(n*n))
		digestRed.Reset(&m.TC)
		m.Parallel("lu", core.NoArgs())
		checksum = Checksum(digestRed.Value(&m.TC), m.ReadF64(pivA))
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: prog.Elapsed(), Report: prog.Report()}, nil
}

// heapFor sizes the shared heap: the padded matrix plus slack for the
// monitor page and reduction slots.
func heapFor(n int) int {
	need := rowBytes(n)*n + 64*core.PageSize
	if min := 16 << 20; need < min {
		return min
	}
	return need
}
