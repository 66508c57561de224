package sweep3d

import (
	"sync"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/mpi"
)

// RunMPI executes the message-passing version: the same y-slab pipeline,
// with ψ_y boundary planes sent point-to-point to the downstream
// neighbour. The message tag encodes (octant, x-block, angle-block) so
// planes of different units never mismatch.
func RunMPI(p Params, procs int) (apps.Result, error) {
	validate(p)
	nx, ny, nz := p.NX, p.NY, p.NZ

	var mu sync.Mutex
	var checksum float64

	world := mpi.New(mpi.Config{Procs: procs, Platform: p.Platform})
	err := world.Run(func(r *mpi.Rank) {
		me, np := r.ID(), r.Procs()
		ysAll, ylo := slabOrder(ny, +1, me, np)
		flux := make([]float64, len(ysAll)*nx*nz)
		bufs := newSlabBufs(p)

		for octIdx, oct := range octants {
			ys, _ := slabOrder(ny, oct[1], me, np)
			up, down := neighbours(me, np, oct[1])
			for abIdx, as := range angleBlocks(p.Angles, p.AngleBlock) {
				na := len(as)
				psiX := make([]float64, len(ys)*nz*na)
				for xbIdx, xs := range xBlocks(nx, p.BlockX, oct[0]) {
					cnt := len(xs) * nz * na
					tag := (octIdx*maxXBlocks+xbIdx)*maxAngleBlk + abIdx + 1
					in, out := bufs.slab(cnt)
					if up >= 0 {
						mpi.DecodeF64s(in, r.Recv(up, tag))
					}
					r.Compute(sweepSlab(p, oct, xs, ys, as, ylo, in, out, psiX, flux))
					if down >= 0 {
						r.SendF64s(down, tag, out)
					}
				}
			}
		}

		s, s2 := fluxMoments(flux)
		r.Compute(2 * float64(len(flux)))
		tot := r.Reduce(mpi.OpSum, []float64{s, s2})
		if me == 0 {
			mu.Lock()
			checksum = digest(tot[0], tot[1])
			mu.Unlock()
		}
	})
	if err != nil {
		return apps.Result{}, err
	}
	msgs, bytes := world.Switch().Stats().Snapshot()
	return apps.Result{Checksum: checksum, Time: world.MaxClock(), Report: dsm.Report{Messages: msgs, Bytes: bytes}}, nil
}
