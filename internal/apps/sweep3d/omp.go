package sweep3d

import (
	"repro/internal/apps"
	"repro/internal/core"
)

// RunOMP executes the OpenMP version on the NOW (TreadMarks) backend.
func RunOMP(p Params, procs int) (apps.Result, error) {
	return RunOMPOn(p, procs, core.BackendNOW)
}

// RunOMPOn executes the OpenMP version on the given core backend — the
// source is backend-neutral. One coarse-grained parallel region
// (Table 1: "parallel region" + "semaphore"). Each pipeline unit hands its
// outgoing ψ_y boundary plane to the downstream neighbour through shared
// memory, synchronized by the paper's proposed sema_signal/sema_wait pair
// — the "available" semaphore says the plane is ready, the "free"
// semaphore (the Figure 3 "done" flag) says the slot may be overwritten.
func RunOMPOn(p Params, procs int, backend core.BackendKind) (apps.Result, error) {
	validate(p)
	nx, ny, nz := p.NX, p.NY, p.NZ
	nxb := (nx + p.BlockX - 1) / p.BlockX
	nab := (p.Angles + p.AngleBlock - 1) / p.AngleBlock
	slotBytes := core.PageRound(8 * p.BlockX * nz * p.AngleBlock)

	prog := core.NewProgram(core.Config{
		Threads:   procs,
		HeapBytes: 16<<20 + procs*nxb*nab*slotBytes,
		Platform:  p.Platform,
		Backend:   backend,
		DSM:       p.DSM,
	})
	defer prog.Close()
	slots := prog.SharedPage(procs * nxb * nab * slotBytes)
	redS := prog.NewReduction(core.OpSum)
	redS2 := prog.NewReduction(core.OpSum)

	prog.RegisterRegion("sweep", func(tc *core.TC) {
		me := tc.ThreadNum()
		lo, hi := core.StaticBlock(0, ny, me, procs)
		flux := make([]float64, (hi-lo)*nx*nz)
		slotUse := make(map[int]int) // per-slot reuse count (for sema_free)
		bufs := newSlabBufs(p)

		for _, oct := range octants {
			ys, ylo := slabOrder(ny, oct[1], me, procs)
			up, down := neighbours(me, procs, oct[1])
			for abIdx, as := range angleBlocks(p.Angles, p.AngleBlock) {
				na := len(as)
				psiX := make([]float64, (hi-lo)*nz*na)
				for xbIdx, xs := range xBlocks(nx, p.BlockX, oct[0]) {
					in, out := bufs.slab(len(xs) * nz * na)
					if up >= 0 {
						tc.SemaWait(semID(up, xbIdx, abIdx, dirOf(oct[1]), semFamilyData, me, procs))
						tc.ReadF64s(slots+core.Addr(slotIndex(up, xbIdx, abIdx, nxb, nab)*slotBytes), in)
						tc.SemaSignal(semID(up, xbIdx, abIdx, 0, semFamilyFree, up, procs))
					}
					tc.Compute(sweepSlab(p, oct, xs, ys, as, ylo, in, out, psiX, flux))
					if down >= 0 {
						slot := slotIndex(me, xbIdx, abIdx, nxb, nab)
						if slotUse[slot] > 0 {
							tc.SemaWait(semID(me, xbIdx, abIdx, 0, semFamilyFree, me, procs))
						}
						slotUse[slot]++
						tc.WriteF64s(slots+core.Addr(slot*slotBytes), out)
						tc.SemaSignal(semID(me, xbIdx, abIdx, dirOf(oct[1]), semFamilyData, down, procs))
					}
				}
			}
		}
		s, s2 := fluxMoments(flux)
		tc.Compute(2 * float64(len(flux)))
		redS.Reduce(tc, s)
		redS2.Reduce(tc, s2)
	})

	var checksum float64
	err := prog.Run(func(m *core.MC) {
		redS.Reset(&m.TC)
		redS2.Reset(&m.TC)
		m.Parallel("sweep", core.NoArgs())
		checksum = digest(redS.Value(&m.TC), redS2.Value(&m.TC))
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: prog.Elapsed(), Report: prog.Report()}, nil
}
