package fft3d

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
)

// RunTmk executes the hand-coded TreadMarks version: a single SPMD
// parallel region forked once, with explicit Tmk_barriers between phases
// (the style of the original TreadMarks applications the paper compares
// against, as opposed to the compiler's fork-join per parallel do).
func RunTmk(p Params, procs int) (apps.Result, error) {
	n := p.N
	pts := n * n * n
	maxSlab := (n + procs - 1) / procs
	maxBlock := maxSlab * maxSlab * n
	cfg := p.DSM
	cfg.Procs, cfg.Platform = procs, p.Platform
	cfg.HeapBytes = tmkHeapBytes(pts, procs, maxBlock)
	sys := dsm.New(cfg)
	defer sys.Close()
	sh := allocTmk(sys, pts, procs, maxBlock)
	u, w, vw, xb, partials, total := sh.u, sh.w, sh.vw, sh.xb, sh.partials, sh.total

	slab := func(id int) (int, int) { return core.StaticBlock(0, n, id, procs) }

	sys.Register("fft-main", func(nd *dsm.Node, _ []byte) {
		me := nd.ID()
		zlo, zhi := slab(me)
		xlo, xhi := slab(me)
		sc := &scratch{}                 // the transposes' host buffers
		plane := make([]complex128, n*n) // the working plane or pencil

		// Initialize own z-slab.
		for z := zlo; z < zhi; z++ {
			for i := range plane {
				re, im := initValue(p.Seed, z*n*n+i)
				plane[i] = complex(re, im)
			}
			writeComplex(nd, u+dsm.Addr(cBytes*z*n*n), plane, &sc.f)
		}
		nd.Compute(10 * float64((zhi-zlo)*n*n))

		// Forward 2D FFTs on own planes (no barrier needed: planes are
		// still private to their initializer).
		for z := zlo; z < zhi; z++ {
			readComplex(nd, u+dsm.Addr(cBytes*z*n*n), plane, &sc.f)
			nd.Compute(fft2D(plane, n, -1))
			writeComplex(nd, u+dsm.Addr(cBytes*z*n*n), plane, &sc.f)
		}

		// Blocked global transpose, then z-direction FFTs.
		packForward(nd, u, xb, me, n, slab, sc)
		nd.Compute(2 * float64((zhi-zlo)*n*n))
		nd.Barrier()
		unpackForward(nd, w, xb, me, n, slab, sc)
		nd.Compute(2 * float64((xhi-xlo)*n*n))
		for x := xlo; x < xhi; x++ {
			for y := 0; y < n; y++ {
				pen := plane[:n]
				readComplex(nd, w+dsm.Addr(cBytes*(x*n+y)*n), pen, &sc.f)
				fft(pen, -1)
				writeComplex(nd, w+dsm.Addr(cBytes*(x*n+y)*n), pen, &sc.f)
			}
		}
		nd.Compute(float64((xhi-xlo)*n) * fftFlops(n))
		// The staging slots are about to be reused by packBackward; the
		// barrier orders that reuse after every unpackForward read (slot
		// reuse without synchronization would be a data race).
		nd.Barrier()

		for t := 1; t <= p.Iters; t++ {
			// Evolve + inverse z FFTs on own x-slab (w is preserved so
			// the next iteration can reuse it).
			for kx := xlo; kx < xhi; kx++ {
				s := plane
				readComplex(nd, w+dsm.Addr(cBytes*kx*n*n), s, &sc.f)
				for ky := 0; ky < n; ky++ {
					for kz := 0; kz < n; kz++ {
						s[ky*n+kz] *= complex(evolveFactor(kx, ky, kz, n, t), 0)
					}
					fft(s[ky*n:(ky+1)*n], +1)
				}
				writeComplex(nd, vw+dsm.Addr(cBytes*kx*n*n), s, &sc.f)
			}
			nd.Compute(25*float64((xhi-xlo)*n*n) + float64((xhi-xlo)*n)*fftFlops(n))

			// Blocked transpose back.
			packBackward(nd, vw, xb, me, n, slab, sc)
			nd.Compute(2 * float64((xhi-xlo)*n*n))
			nd.Barrier()
			unpackBackward(nd, u, xb, me, n, slab, sc)
			nd.Compute(2 * float64((zhi-zlo)*n*n))

			// Inverse 2D FFTs and normalization on own z-slab.
			scale := 1 / float64(pts)
			for z := zlo; z < zhi; z++ {
				readComplex(nd, u+dsm.Addr(cBytes*z*n*n), plane, &sc.f)
				nd.Compute(fft2D(plane, n, +1))
				for i := range plane {
					plane[i] *= complex(scale, 0)
				}
				writeComplex(nd, u+dsm.Addr(cBytes*z*n*n), plane, &sc.f)
			}
			nd.Compute(2 * float64((zhi-zlo)*n*n))

			// Checksum partials, then node 0 accumulates.
			re, im := checksumPartial(nd, u, n, zlo, zhi)
			base := partials + dsm.Addr(dsm.PageSize*me)
			nd.WriteF64(base, re)
			nd.WriteF64(base+8, im)
			nd.Barrier()
			if me == 0 {
				var sre, sim2 float64
				for i := 0; i < procs; i++ {
					b := partials + dsm.Addr(dsm.PageSize*i)
					sre += nd.ReadF64(b)
					sim2 += nd.ReadF64(b + 8)
				}
				nd.WriteF64(total, nd.ReadF64(total)+gridChecksum(sre, sim2))
			}
			nd.Barrier() // staging blocks stable before next iteration
		}
	})

	var checksum float64
	err := sys.Run(func(nd *dsm.Node) {
		nd.RunParallel("fft-main", nil)
		checksum = nd.ReadF64(total)
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: sys.MaxClock(), Report: sys.Report()}, nil
}

// tmkShared is RunTmk's shared layout.
type tmkShared struct {
	u, w, vw dsm.Addr // spatial, frequency and evolved frequency grids
	xb       *xferBlocks
	partials dsm.Addr // per-node checksum partials, a page apart (no false sharing)
	total    dsm.Addr // the global accumulator written by node 0
}

// allocTmk allocates RunTmk's shared layout; tmkHeapBytes budgets for it.
func allocTmk(sys *dsm.System, pts, procs, maxBlock int) tmkShared {
	return tmkShared{
		u:        sys.MallocPage(cBytes * pts),
		w:        sys.MallocPage(cBytes * pts),
		vw:       sys.MallocPage(cBytes * pts),
		xb:       newXferBlocks(sys.MallocPage(blocksBytesNeeded(procs, maxBlock)), procs, maxBlock),
		partials: sys.MallocPage(dsm.PageSize * procs),
		total:    sys.MallocPage(16),
	}
}

// tmkHeapBytes is the shared heap allocTmk needs: the grids and staging
// blocks the OpenMP version sizes too, plus a page of checksum partials per
// node and the accumulator's page.
func tmkHeapBytes(pts, procs, maxBlock int) int {
	return heapFor(pts) + blocksBytesNeeded(procs, maxBlock) + dsm.PageSize*(procs+1)
}
