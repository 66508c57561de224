package fft3d

import (
	"math"
	"math/cmplx"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// Params configures one 3D-FFT run (a NAS-FT style PDE solve).
type Params struct {
	// N is the grid edge (N³ complex points); must be a power of two.
	N int
	// Iters is the number of evolution steps (NAS FT does several; the
	// paper's table shows a small iteration count).
	Iters int
	// Seed drives the deterministic initial condition.
	Seed uint64
	// Platform overrides the cost model (nil = default).
	Platform *sim.Platform
	// DSM carries the protocol knobs of the DSM-backed implementations
	// (DisableGC, GCPressure — see
	// dsm.Config); the run fills Procs, HeapBytes and Platform itself.
	DSM dsm.Config
}

// Default returns the paper-scale configuration used by the harness
// (64³ grid — a NOW-sized NAS class between S and A).
func Default() Params { return Params{N: 64, Iters: 2, Seed: 271828} }

// Small returns a test-scale configuration.
func Small() Params { return Params{N: 16, Iters: 2, Seed: 271828} }

const alpha = 1e-6

// initValue returns the deterministic initial condition at linear index
// idx, independent of which node computes it.
func initValue(seed uint64, idx int) (re, im float64) {
	r := sim.NewRNG(seed + uint64(idx)*0x9E3779B97F4A7C15)
	return 2*r.Float64() - 1, 2*r.Float64() - 1
}

// evolveFactor is the frequency-space Green's function exp(-4π²αt·|k̄|²)
// with wavenumbers folded to [-n/2, n/2).
func evolveFactor(kx, ky, kz, n, t int) float64 {
	fold := func(k int) float64 {
		k = (k + n/2) % n
		return float64(k - n/2)
	}
	x, y, z := fold(kx), fold(ky), fold(kz)
	return math.Exp(-4 * math.Pi * math.Pi * alpha * float64(t) * (x*x + y*y + z*z))
}

// checksumIndices yields the NAS-style sample coordinates for term j.
func checksumIndices(j, n int) (x, y, z int) {
	return j % n, (3 * j) % n, (5 * j) % n
}

const checksumTerms = 1024

// RunSeq executes the sequential reference implementation and returns the
// accumulated checksum magnitude across iterations.
func RunSeq(p Params) apps.Result {
	n := p.N
	m := sim.NewMeter(p.Platform)
	u := make([]complex128, n*n*n) // spatial, [z][y][x]
	w := make([]complex128, n*n*n) // frequency, [kx][ky][kz]

	for idx := range u {
		re, im := initValue(p.Seed, idx)
		u[idx] = complex(re, im)
	}
	m.Compute(10 * float64(n*n*n))

	// Forward transform: 2D per z-plane, transpose, 1D along z.
	for z := 0; z < n; z++ {
		m.Compute(fft2D(u[z*n*n:(z+1)*n*n], n, -1))
	}
	transpose(u, w, n)
	m.Compute(2 * float64(n*n*n))
	for pen := 0; pen < n*n; pen++ {
		fft(w[pen*n:(pen+1)*n], -1)
	}
	m.Compute(float64(n*n) * fftFlops(n))

	var checksum float64
	v := make([]complex128, n*n*n)
	vw := make([]complex128, n*n*n)
	for t := 1; t <= p.Iters; t++ {
		// Evolve in frequency space (w layout is [kx][ky][kz]).
		for kx := 0; kx < n; kx++ {
			for ky := 0; ky < n; ky++ {
				for kz := 0; kz < n; kz++ {
					f := evolveFactor(kx, ky, kz, n, t)
					vw[(kx*n+ky)*n+kz] = w[(kx*n+ky)*n+kz] * complex(f, 0)
				}
			}
		}
		m.Compute(25 * float64(n*n*n))

		// Inverse: 1D along kz, transpose back, 2D per plane, normalize.
		for pen := 0; pen < n*n; pen++ {
			fft(vw[pen*n:(pen+1)*n], +1)
		}
		m.Compute(float64(n*n) * fftFlops(n))
		transposeBack(vw, v, n)
		m.Compute(2 * float64(n*n*n))
		scale := 1 / float64(n*n*n)
		for z := 0; z < n; z++ {
			plane := v[z*n*n : (z+1)*n*n]
			m.Compute(fft2D(plane, n, +1))
			for i := range plane {
				plane[i] *= complex(scale, 0)
			}
		}
		m.Compute(2 * float64(n*n*n))

		checksum += checksumValue(v, n)
		m.Compute(10 * checksumTerms)
	}
	return apps.Result{Checksum: checksum, Time: m.Elapsed()}
}

// transpose copies u[z][y][x] into w[x][y][z].
func transpose(u, w []complex128, n int) {
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			base := (z*n + y) * n
			for x := 0; x < n; x++ {
				w[(x*n+y)*n+z] = u[base+x]
			}
		}
	}
}

// transposeBack copies w[x][y][z] into u[z][y][x].
func transposeBack(w, u []complex128, n int) {
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			base := (x*n + y) * n
			for z := 0; z < n; z++ {
				u[(z*n+y)*n+x] = w[base+z]
			}
		}
	}
}

// checksumValue sums the NAS sample points of the spatial field.
func checksumValue(v []complex128, n int) float64 {
	var s complex128
	for j := 1; j <= checksumTerms; j++ {
		x, y, z := checksumIndices(j, n)
		s += v[(z*n+y)*n+x]
	}
	return cmplx.Abs(s)
}
