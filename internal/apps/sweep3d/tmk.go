package sweep3d

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
)

// RunTmk executes the hand-coded TreadMarks version: identical pipeline
// structure to the OpenMP code (the original Tmk port is what the OpenMP
// version was transcribed from), but written directly against the DSM
// primitives with per-node result pages instead of runtime reductions.
func RunTmk(p Params, procs int) (apps.Result, error) {
	validate(p)
	nx, ny, nz := p.NX, p.NY, p.NZ
	nxb := (nx + p.BlockX - 1) / p.BlockX
	nab := (p.Angles + p.AngleBlock - 1) / p.AngleBlock
	slotBytes := core.PageRound(8 * p.BlockX * nz * p.AngleBlock)

	cfg := p.DSM
	cfg.Procs, cfg.Platform = procs, p.Platform
	cfg.HeapBytes = 16<<20 + procs*nxb*nab*slotBytes
	sys := dsm.New(cfg)
	defer sys.Close()
	slots := sys.MallocPage(procs * nxb * nab * slotBytes)
	partials := sys.MallocPage(dsm.PageSize * procs)
	out := sys.MallocPage(16)

	sys.Register("sweep", func(nd *dsm.Node, _ []byte) {
		me := nd.ID()
		ysAll, ylo := slabOrder(ny, +1, me, procs)
		flux := make([]float64, len(ysAll)*nx*nz)
		slotUse := make(map[int]int)
		bufs := newSlabBufs(p)

		for _, oct := range octants {
			ys, _ := slabOrder(ny, oct[1], me, procs)
			up, down := neighbours(me, procs, oct[1])
			for abIdx, as := range angleBlocks(p.Angles, p.AngleBlock) {
				na := len(as)
				psiX := make([]float64, len(ys)*nz*na)
				for xbIdx, xs := range xBlocks(nx, p.BlockX, oct[0]) {
					in, bndOut := bufs.slab(len(xs) * nz * na)
					if up >= 0 {
						nd.SemaWait(semID(up, xbIdx, abIdx, dirOf(oct[1]), semFamilyData, me, procs))
						nd.ReadF64s(slots+dsm.Addr(slotIndex(up, xbIdx, abIdx, nxb, nab)*slotBytes), in)
						nd.SemaSignal(semID(up, xbIdx, abIdx, 0, semFamilyFree, up, procs))
					}
					nd.Compute(sweepSlab(p, oct, xs, ys, as, ylo, in, bndOut, psiX, flux))
					if down >= 0 {
						slot := slotIndex(me, xbIdx, abIdx, nxb, nab)
						if slotUse[slot] > 0 {
							nd.SemaWait(semID(me, xbIdx, abIdx, 0, semFamilyFree, me, procs))
						}
						slotUse[slot]++
						nd.WriteF64s(slots+dsm.Addr(slot*slotBytes), bndOut)
						nd.SemaSignal(semID(me, xbIdx, abIdx, dirOf(oct[1]), semFamilyData, down, procs))
					}
				}
			}
		}

		s, s2 := fluxMoments(flux)
		nd.Compute(2 * float64(len(flux)))
		base := partials + dsm.Addr(dsm.PageSize*me)
		nd.WriteF64(base, s)
		nd.WriteF64(base+8, s2)
		nd.Barrier()
		if me == 0 {
			var ts, ts2 float64
			for t := 0; t < procs; t++ {
				b := partials + dsm.Addr(dsm.PageSize*t)
				ts += nd.ReadF64(b)
				ts2 += nd.ReadF64(b + 8)
			}
			nd.WriteF64(out, digest(ts, ts2))
		}
	})

	var checksum float64
	err := sys.Run(func(nd *dsm.Node) {
		nd.RunParallel("sweep", nil)
		checksum = nd.ReadF64(out)
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: sys.MaxClock(), Report: sys.Report()}, nil
}
