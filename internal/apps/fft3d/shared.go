package fft3d

import (
	"math"

	"repro/internal/core"
)

// Helpers shared by the OpenMP and TreadMarks versions: complex grids
// live in shared memory as (re, im) float64 pairs, 16 bytes per point.
// Every helper takes a core.Worker, which both *dsm.Node (TreadMarks)
// and the OpenMP thread context's Worker() satisfy, so one set of layout
// routines serves every backend.

const cBytes = 16

// scratch is one thread's host buffers for moving complex values in and
// out of shared memory: the float64 staging buffer of the bulk helpers and
// two complex buffers for rows, planes and transpose blocks. A thread owns
// one for the whole run and each buffer grows to the largest transfer it
// sees, so after the first pass no row, plane or block allocates.
type scratch struct {
	f   []float64
	buf []complex128 // the row, plane or block in flight
	out []complex128 // an unpacked slab
}

// grow returns buf resized to n elements, reallocating only when its
// capacity falls short (the contents are then not kept).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// complexes returns the in-flight buffer resized to n values.
func (sc *scratch) complexes(n int) []complex128 {
	sc.buf = grow(sc.buf, n)
	return sc.buf
}

// readComplex bulk-reads len(dst) complex values starting at a into dst,
// staging them through *f.
func readComplex(n core.Worker, a core.Addr, dst []complex128, f *[]float64) {
	*f = grow(*f, 2*len(dst))
	buf := *f
	n.ReadF64s(a, buf)
	for i := range dst {
		dst[i] = complex(buf[2*i], buf[2*i+1])
	}
}

// writeComplex bulk-writes vals starting at a, staging them through *f.
func writeComplex(n core.Worker, a core.Addr, vals []complex128, f *[]float64) {
	*f = grow(*f, 2*len(vals))
	buf := *f
	for i, v := range vals {
		buf[2*i] = real(v)
		buf[2*i+1] = imag(v)
	}
	n.WriteF64s(a, buf)
}

// readC reads one complex value at linear element index idx of array a.
func readC(n core.Worker, a core.Addr, idx int) complex128 {
	return complex(n.ReadF64(a+core.Addr(cBytes*idx)), n.ReadF64(a+core.Addr(cBytes*idx+8)))
}

// writeC writes one complex value at linear element index idx of array a.
func writeC(n core.Worker, a core.Addr, idx int, v complex128) {
	n.WriteF64(a+core.Addr(cBytes*idx), real(v))
	n.WriteF64(a+core.Addr(cBytes*idx+8), imag(v))
}

// The global transpose on the DSM is blocked, as efficient page-based DSM
// FT codes were written: the source-slab owner packs, for every
// destination thread, a contiguous block of the elements that thread will
// need; after a barrier the destination reads whole blocks (bulk,
// page-friendly) and unpacks into its own slab. This moves each byte once
// instead of pulling every source page to every node.

// xferBlocks describes the shared staging buffer of a blocked transpose:
// P×P blocks, each page-aligned so that no two writers share a page.
type xferBlocks struct {
	base       core.Addr
	procs      int
	blockBytes int // rounded up to a page multiple
}

// blocksBytesNeeded returns the staging buffer size for P procs when each
// (src,dst) block holds at most maxElems complex values.
func blocksBytesNeeded(procs, maxElems int) int {
	bb := core.PageRound(cBytes * maxElems)
	return procs * procs * bb
}

func newXferBlocks(base core.Addr, procs, maxElems int) *xferBlocks {
	return &xferBlocks{base: base, procs: procs, blockBytes: core.PageRound(cBytes * maxElems)}
}

// addr returns the shared address of block (src → dst).
func (xb *xferBlocks) addr(src, dst int) core.Addr {
	return xb.base + core.Addr((src*xb.procs+dst)*xb.blockBytes)
}

// packForward packs this thread's z-slab of u for every destination:
// block(me→d) = u[z][y][x] for z in my slab, y over all, x in d's slab,
// in (z, y, x) order.
func packForward(node core.Worker, u core.Addr, xb *xferBlocks, me, n int, slab func(int) (int, int), sc *scratch) {
	zlo, zhi := slab(me)
	for d := 0; d < xb.procs; d++ {
		dlo, dhi := slab(d)
		row := dhi - dlo
		vals := sc.complexes((zhi - zlo) * n * row)
		i := 0
		for z := zlo; z < zhi; z++ {
			for y := 0; y < n; y++ {
				readComplex(node, u+core.Addr(cBytes*((z*n+y)*n+dlo)), vals[i:i+row], &sc.f)
				i += row
			}
		}
		writeComplex(node, xb.addr(me, d), vals, &sc.f)
	}
}

// unpackForward builds this thread's x-slab of w from the staged blocks:
// w[x][y][z] for x in my slab (assembled privately, written in one
// contiguous store — the slab is contiguous in w's [x][y][z] layout).
func unpackForward(node core.Worker, w core.Addr, xb *xferBlocks, me, n int, slab func(int) (int, int), sc *scratch) {
	xlo, xhi := slab(me)
	myX := xhi - xlo
	sc.out = grow(sc.out, myX*n*n)
	out := sc.out
	for s := 0; s < xb.procs; s++ {
		slo, shi := slab(s)
		vals := sc.complexes((shi - slo) * n * myX)
		readComplex(node, xb.addr(s, me), vals, &sc.f)
		i := 0
		for z := slo; z < shi; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < myX; x++ {
					out[(x*n+y)*n+z] = vals[i]
					i++
				}
			}
		}
	}
	writeComplex(node, w+core.Addr(cBytes*xlo*n*n), out, &sc.f)
}

// packBackward packs this thread's x-slab of vw for every destination
// z-slab owner: block(me→d) = vw[x][y][z] for x in my slab, z in d's slab,
// in (x, y, z) order.
func packBackward(node core.Worker, vw core.Addr, xb *xferBlocks, me, n int, slab func(int) (int, int), sc *scratch) {
	xlo, xhi := slab(me)
	for d := 0; d < xb.procs; d++ {
		dlo, dhi := slab(d)
		row := dhi - dlo
		vals := sc.complexes((xhi - xlo) * n * row)
		i := 0
		for x := xlo; x < xhi; x++ {
			for y := 0; y < n; y++ {
				readComplex(node, vw+core.Addr(cBytes*((x*n+y)*n+dlo)), vals[i:i+row], &sc.f)
				i += row
			}
		}
		writeComplex(node, xb.addr(me, d), vals, &sc.f)
	}
}

// unpackBackward builds this thread's z-slab of u from the staged blocks:
// u[z][y][x] for z in my slab (assembled privately, stored contiguously).
func unpackBackward(node core.Worker, u core.Addr, xb *xferBlocks, me, n int, slab func(int) (int, int), sc *scratch) {
	zlo, zhi := slab(me)
	myZ := zhi - zlo
	sc.out = grow(sc.out, myZ*n*n)
	out := sc.out
	for s := 0; s < xb.procs; s++ {
		slo, shi := slab(s)
		vals := sc.complexes((shi - slo) * n * myZ)
		readComplex(node, xb.addr(s, me), vals, &sc.f)
		i := 0
		for x := slo; x < shi; x++ {
			for y := 0; y < n; y++ {
				for z := 0; z < myZ; z++ {
					out[(z*n+y)*n+x] = vals[i]
					i++
				}
			}
		}
	}
	writeComplex(node, u+core.Addr(cBytes*zlo*n*n), out, &sc.f)
}

// checksumPartial sums the NAS sample points whose z index falls in
// [zlo, zhi), reading from the spatial array in DSM.
func checksumPartial(node core.Worker, v core.Addr, n, zlo, zhi int) (re, im float64) {
	var s complex128
	for j := 1; j <= checksumTerms; j++ {
		x, y, z := checksumIndices(j, n)
		if z < zlo || z >= zhi {
			continue
		}
		s += readC(node, v, (z*n+y)*n+x)
	}
	return real(s), imag(s)
}

// gridChecksum folds one iteration's complex sample sum into the running
// scalar checksum.
func gridChecksum(re, im float64) float64 { return math.Sqrt(re*re + im*im) }
