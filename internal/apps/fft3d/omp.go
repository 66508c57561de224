package fft3d

import (
	"repro/internal/apps"
	"repro/internal/core"
)

// RunOMP executes the OpenMP version on the NOW (TreadMarks) backend.
func RunOMP(p Params, procs int) (apps.Result, error) {
	return RunOMPOn(p, procs, core.BackendNOW)
}

// RunOMPOn executes the OpenMP version on the given core backend — the
// source is backend-neutral. Every phase is a data-parallel region
// (Table 1: "parallel do" / synchronization "none" — the implicit
// barrier at region end is the only synchronization), matching the paper's
// description of "local computation and a global transpose, both expressed
// as data parallel operations". The global transpose is blocked: owners
// pack contiguous per-destination blocks into a shared staging area; after
// the region boundary, destinations bulk-read whole blocks.
func RunOMPOn(p Params, procs int, backend core.BackendKind) (apps.Result, error) {
	n := p.N
	pts := n * n * n
	maxSlab := (n + procs - 1) / procs
	maxBlock := maxSlab * maxSlab * n
	prog := core.NewProgram(core.Config{
		Threads:   procs,
		HeapBytes: heapFor(pts) + blocksBytesNeeded(procs, maxBlock),
		Platform:  p.Platform,
		Backend:   backend,
		DSM:       p.DSM,
	})
	defer prog.Close()
	u := prog.SharedPage(cBytes * pts)  // spatial, [z][y][x]
	w := prog.SharedPage(cBytes * pts)  // frequency, [kx][ky][kz]
	vw := prog.SharedPage(cBytes * pts) // evolved frequency copy
	xb := newXferBlocks(prog.SharedPage(blocksBytesNeeded(procs, maxBlock)), procs, maxBlock)
	redRe := prog.NewReduction(core.OpSum)
	redIm := prog.NewReduction(core.OpSum)
	slab := func(id int) (int, int) { return core.StaticBlock(0, n, id, procs) }
	// One set of host buffers per thread for the whole run (see scratch).
	scr := make([]scratch, procs)

	prog.RegisterDo("init", func(tc *core.TC, zlo, zhi int) {
		sc := &scr[tc.ThreadNum()]
		plane := sc.complexes(n * n)
		for z := zlo; z < zhi; z++ {
			for i := range plane {
				re, im := initValue(p.Seed, z*n*n+i)
				plane[i] = complex(re, im)
			}
			writeComplex(tc.Worker(), u+core.Addr(cBytes*z*n*n), plane, &sc.f)
		}
		tc.Compute(10 * float64((zhi-zlo)*n*n))
	})

	prog.RegisterDo("fwd2d", func(tc *core.TC, zlo, zhi int) {
		sc := &scr[tc.ThreadNum()]
		plane := sc.complexes(n * n)
		for z := zlo; z < zhi; z++ {
			readComplex(tc.Worker(), u+core.Addr(cBytes*z*n*n), plane, &sc.f)
			tc.Compute(fft2D(plane, n, -1))
			writeComplex(tc.Worker(), u+core.Addr(cBytes*z*n*n), plane, &sc.f)
		}
	})

	prog.RegisterRegion("packfwd", func(tc *core.TC) {
		packForward(tc.Worker(), u, xb, tc.ThreadNum(), n, slab, &scr[tc.ThreadNum()])
		zlo, zhi := slab(tc.ThreadNum())
		tc.Compute(2 * float64((zhi-zlo)*n*n))
	})

	prog.RegisterRegion("unpackfwd", func(tc *core.TC) {
		unpackForward(tc.Worker(), w, xb, tc.ThreadNum(), n, slab, &scr[tc.ThreadNum()])
		xlo, xhi := slab(tc.ThreadNum())
		tc.Compute(2 * float64((xhi-xlo)*n*n))
	})

	prog.RegisterDo("fftz", func(tc *core.TC, xlo, xhi int) {
		sc := &scr[tc.ThreadNum()]
		pen := sc.complexes(n)
		for x := xlo; x < xhi; x++ {
			for y := 0; y < n; y++ {
				readComplex(tc.Worker(), w+core.Addr(cBytes*(x*n+y)*n), pen, &sc.f)
				fft(pen, -1)
				writeComplex(tc.Worker(), w+core.Addr(cBytes*(x*n+y)*n), pen, &sc.f)
			}
		}
		tc.Compute(float64((xhi-xlo)*n) * fftFlops(n))
	})

	prog.RegisterDo("evolve", func(tc *core.TC, xlo, xhi int) {
		t := tc.Args().Int()
		sc := &scr[tc.ThreadNum()]
		s := sc.complexes(n * n)
		for kx := xlo; kx < xhi; kx++ {
			readComplex(tc.Worker(), w+core.Addr(cBytes*kx*n*n), s, &sc.f)
			for ky := 0; ky < n; ky++ {
				for kz := 0; kz < n; kz++ {
					s[ky*n+kz] *= complex(evolveFactor(kx, ky, kz, n, t), 0)
				}
			}
			writeComplex(tc.Worker(), vw+core.Addr(cBytes*kx*n*n), s, &sc.f)
		}
		tc.Compute(25 * float64((xhi-xlo)*n*n))
	})

	prog.RegisterDo("ifftz", func(tc *core.TC, xlo, xhi int) {
		sc := &scr[tc.ThreadNum()]
		pen := sc.complexes(n)
		for x := xlo; x < xhi; x++ {
			for y := 0; y < n; y++ {
				readComplex(tc.Worker(), vw+core.Addr(cBytes*(x*n+y)*n), pen, &sc.f)
				fft(pen, +1)
				writeComplex(tc.Worker(), vw+core.Addr(cBytes*(x*n+y)*n), pen, &sc.f)
			}
		}
		tc.Compute(float64((xhi-xlo)*n) * fftFlops(n))
	})

	prog.RegisterRegion("packback", func(tc *core.TC) {
		packBackward(tc.Worker(), vw, xb, tc.ThreadNum(), n, slab, &scr[tc.ThreadNum()])
		xlo, xhi := slab(tc.ThreadNum())
		tc.Compute(2 * float64((xhi-xlo)*n*n))
	})

	prog.RegisterRegion("unpackback", func(tc *core.TC) {
		unpackBackward(tc.Worker(), u, xb, tc.ThreadNum(), n, slab, &scr[tc.ThreadNum()])
		zlo, zhi := slab(tc.ThreadNum())
		tc.Compute(2 * float64((zhi-zlo)*n*n))
	})

	prog.RegisterDo("inv2d", func(tc *core.TC, zlo, zhi int) {
		scale := 1 / float64(pts)
		sc := &scr[tc.ThreadNum()]
		plane := sc.complexes(n * n)
		for z := zlo; z < zhi; z++ {
			readComplex(tc.Worker(), u+core.Addr(cBytes*z*n*n), plane, &sc.f)
			tc.Compute(fft2D(plane, n, +1))
			for i := range plane {
				plane[i] *= complex(scale, 0)
			}
			writeComplex(tc.Worker(), u+core.Addr(cBytes*z*n*n), plane, &sc.f)
		}
		tc.Compute(2 * float64((zhi-zlo)*n*n))
	})

	prog.RegisterDo("checksum", func(tc *core.TC, zlo, zhi int) {
		re, im := checksumPartial(tc.Worker(), u, n, zlo, zhi)
		redRe.Reduce(tc, re)
		redIm.Reduce(tc, im)
		tc.Compute(10 * checksumTerms / float64(tc.NumThreads()))
	})

	var checksum float64
	err := prog.Run(func(m *core.MC) {
		m.ParallelDo("init", 0, n, core.NoArgs())
		m.ParallelDo("fwd2d", 0, n, core.NoArgs())
		m.Parallel("packfwd", core.NoArgs())
		m.Parallel("unpackfwd", core.NoArgs())
		m.ParallelDo("fftz", 0, n, core.NoArgs())
		for t := 1; t <= p.Iters; t++ {
			m.ParallelDo("evolve", 0, n, core.NoArgs().Int(t))
			m.ParallelDo("ifftz", 0, n, core.NoArgs())
			m.Parallel("packback", core.NoArgs())
			m.Parallel("unpackback", core.NoArgs())
			m.ParallelDo("inv2d", 0, n, core.NoArgs())
			redRe.Reset(&m.TC)
			redIm.Reset(&m.TC)
			m.ParallelDo("checksum", 0, n, core.NoArgs())
			checksum += gridChecksum(redRe.Value(&m.TC), redIm.Value(&m.TC))
		}
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: prog.Elapsed(), Report: prog.Report()}, nil
}

// heapFor sizes the shared heap for three complex grids plus slack.
func heapFor(pts int) int {
	need := 3*cBytes*pts + (64 << 12)
	const minHeap = 8 << 20
	if need < minHeap {
		return minHeap
	}
	return need
}
