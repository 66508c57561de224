// Package sweep3d reproduces the paper's Sweep3D application: "The Sweep3D
// benchmark from the DOE ASCI Blue Benchmark suite solves a one-group
// time-independent discrete-ordinates three-dimensional Cartesian geometry
// neutron transport problem. The main data structure is a 3D mesh. The
// code uses a level of blocking along all three dimensions to achieve a
// certain level of granularity. It then performs multiple 2D wavefront
// sweeping over the 3D blocks. In OpenMP the data dependence between two
// neighbor threads along each pipeline is expressed using our proposed
// sema_signal / sema_wait synchronization directives."
//
// The transport kernel is a one-group diamond-difference sweep over 8
// octants with a small angle set. The domain is decomposed into Y slabs;
// within each octant the sweep pipelines over (x-block, angle-block)
// units, each thread passing the outgoing ψ_y boundary plane of a unit to
// its downstream neighbour. ψ_x and ψ_z never cross threads (the slabs cut
// only the y dimension), so the boundary planes plus the final flux
// gather are the application's entire communication — the real Sweep3D
// pattern.
package sweep3d

import (
	"math"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// Params configures one Sweep3D run.
type Params struct {
	// NX, NY, NZ are the mesh dimensions.
	NX, NY, NZ int
	// Angles is the number of discrete ordinates per octant.
	Angles int
	// BlockX is the pipeline granularity along x.
	BlockX int
	// AngleBlock is the pipeline granularity over angles.
	AngleBlock int
	// Platform overrides the cost model.
	Platform *sim.Platform
	// DSM carries the protocol knobs of the DSM-backed implementations
	// (DisableGC, GCPressure — see
	// dsm.Config); the run fills Procs, HeapBytes and Platform itself.
	// Sweep3D synchronizes through semaphore pipelines, so between region
	// boundaries only the consensus trigger collects for it.
	DSM dsm.Config
}

// Default returns the paper-scale configuration (50×50×50 mesh, 6 angles
// per octant).
func Default() Params {
	return Params{NX: 50, NY: 50, NZ: 50, Angles: 6, BlockX: 5, AngleBlock: 3}
}

// Small returns a test-scale configuration.
func Small() Params {
	return Params{NX: 12, NY: 12, NZ: 12, Angles: 2, BlockX: 4, AngleBlock: 1}
}

const sigma = 1.0 // total macroscopic cross-section

// flopsPerCellAngle is the virtual cost of one diamond-difference cell
// update for one angle.
const flopsPerCellAngle = 22.0

// octant directions: sign of the sweep along each axis.
var octants = [8][3]int{
	{+1, +1, +1}, {-1, +1, +1}, {+1, -1, +1}, {-1, -1, +1},
	{+1, +1, -1}, {-1, +1, -1}, {+1, -1, -1}, {-1, -1, -1},
}

// ordinate returns the direction cosines and weight of angle a of A.
func ordinate(a, A int) (mu, eta, xi, w float64) {
	// A deterministic, normalized angle set: spread polar angles over
	// the octant diagonal.
	t := (float64(a) + 0.5) / float64(A)
	mu = 0.30 + 0.65*t
	eta = 0.80 - 0.55*t
	r := mu*mu + eta*eta
	if r >= 1 {
		scale := math.Sqrt(0.98 / r)
		mu *= scale
		eta *= scale
		r = mu*mu + eta*eta
	}
	xi = math.Sqrt(1 - r)
	w = 1.0 / float64(A)
	return
}

// source returns the fixed source term of cell (i, j, k): deterministic
// and cheap so every implementation recomputes it locally.
func source(i, j, k int) float64 {
	return 0.5 + float64((i*7+j*13+k*29)%17)/17.0
}

// axisOrder returns the index sequence of axis length n in sweep
// direction s (+1 ascending, -1 descending).
func axisOrder(n, s int) []int {
	out := make([]int, n)
	for x := 0; x < n; x++ {
		if s > 0 {
			out[x] = x
		} else {
			out[x] = n - 1 - x
		}
	}
	return out
}

// xBlocks partitions the x axis into sweep-ordered blocks of size bx.
func xBlocks(nx, bx, sx int) [][]int {
	order := axisOrder(nx, sx)
	var blocks [][]int
	for off := 0; off < nx; off += bx {
		end := off + bx
		if end > nx {
			end = nx
		}
		blocks = append(blocks, order[off:end])
	}
	return blocks
}

// angleBlocks partitions the angle set into blocks of size ab.
func angleBlocks(A, ab int) [][]int {
	var blocks [][]int
	for lo := 0; lo < A; lo += ab {
		hi := lo + ab
		if hi > A {
			hi = A
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		blocks = append(blocks, idx)
	}
	return blocks
}

// sweepSlab advances one pipeline unit: it sweeps the cells
// {i ∈ xs} × {j ∈ ys (in sweep order)} × {all k} for the angles in as,
// reading the incoming ψ_y boundary from bndIn (indexed [ii][k][ai],
// ii = position of i within xs) and leaving the outgoing boundary in
// bndOut (same shape). psiX persists across units of the same octant
// sweep (indexed [j][k][ai] over the thread's slab, j relative to ylo);
// flux accumulates w·ψ (local slab, layout [(j-ylo)*nx+i]*nz+k).
func sweepSlab(p Params, oct [3]int, xs, ys, as []int, ylo int,
	bndIn, bndOut []float64, psiX, flux []float64) float64 {

	nx, nz := p.NX, p.NZ
	na := len(as)
	zs := axisOrder(nz, oct[2])

	type angleParams struct{ cx, cy, cz, denom, w float64 }
	ap := make([]angleParams, na)
	for ai, a := range as {
		mu, eta, xi, w := ordinate(a, p.Angles)
		cx, cy, cz := 2*mu, 2*eta, 2*xi
		ap[ai] = angleParams{cx, cy, cz, sigma + cx + cy + cz, w}
	}

	psiZ := make([]float64, na)
	for ii, i := range xs {
		// ψ_y enters this slab from the upstream thread (or vacuum).
		psiYrow := bndIn[ii*nz*na : (ii+1)*nz*na]
		for _, j := range ys {
			jr := j - ylo
			for zi := 0; zi < nz; zi++ {
				k := zs[zi]
				// ψ_z restarts at the k boundary of each (i, j) column.
				if zi == 0 {
					for ai := range psiZ {
						psiZ[ai] = 0
					}
				}
				s := source(i, j, k)
				fsum := 0.0
				for ai := 0; ai < na; ai++ {
					px := psiX[(jr*nz+k)*na+ai]
					py := psiYrow[k*na+ai]
					pz := psiZ[ai]
					c := &ap[ai]
					psi := (s + c.cx*px + c.cy*py + c.cz*pz) / c.denom
					psiX[(jr*nz+k)*na+ai] = 2*psi - px
					psiYrow[k*na+ai] = 2*psi - py
					psiZ[ai] = 2*psi - pz
					fsum += c.w * psi
				}
				flux[(jr*nx+i)*nz+k] += fsum
			}
		}
		copy(bndOut[ii*nz*na:(ii+1)*nz*na], psiYrow)
	}
	return float64(len(xs)*len(ys)*nz*na) * flopsPerCellAngle
}

// slabBufs is one thread's pair of ψ_y boundary planes, in and out, sized
// for the largest block and reused for every block it sweeps.
type slabBufs struct{ in, out []float64 }

func newSlabBufs(p Params) slabBufs {
	n := p.BlockX * p.NZ * p.AngleBlock
	return slabBufs{in: make([]float64, n), out: make([]float64, n)}
}

// slab returns the planes of a block of cnt values, cleared: an inflow
// with no upstream thread is vacuum.
func (b slabBufs) slab(cnt int) (in, out []float64) {
	in, out = b.in[:cnt], b.out[:cnt]
	clear(in)
	clear(out)
	return in, out
}

// fluxMoments returns the slab's additive checksum moments (Σv, Σv²);
// partial moments from different slabs sum, and digest combines them.
func fluxMoments(flux []float64) (s, s2 float64) {
	for _, v := range flux {
		s += v
		s2 += v * v
	}
	return s, s2
}

// digest folds total flux moments into the run checksum.
func digest(s, s2 float64) float64 { return s + math.Sqrt(s2) }

// fluxDigest reduces a full flux array to the run checksum.
func fluxDigest(flux []float64) float64 {
	return digest(fluxMoments(flux))
}

// RunSeq executes the sequential reference sweep.
func RunSeq(p Params) apps.Result {
	m := sim.NewMeter(p.Platform)
	nx, ny, nz := p.NX, p.NY, p.NZ
	flux := make([]float64, nx*ny*nz)
	ys := make([]int, ny)
	bnd := make([]float64, p.BlockX*nz*p.AngleBlock)

	for _, oct := range octants {
		yOrder := axisOrder(ny, oct[1])
		copy(ys, yOrder)
		for _, as := range angleBlocks(p.Angles, p.AngleBlock) {
			na := len(as)
			psiX := make([]float64, ny*nz*na)
			for _, xs := range xBlocks(nx, p.BlockX, oct[0]) {
				in := bnd[:len(xs)*nz*na]
				for i := range in {
					in[i] = 0 // vacuum boundary
				}
				out := make([]float64, len(xs)*nz*na)
				m.Compute(sweepSlab(p, oct, xs, ys, as, 0, in, out, psiX, flux))
			}
		}
	}
	m.Compute(2 * float64(len(flux)))
	return apps.Result{Checksum: fluxDigest(flux), Time: m.Elapsed()}
}
