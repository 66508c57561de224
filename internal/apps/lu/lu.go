// Package lu adds a dense LU decomposition in the style of the SPLASH-2
// "LU-Contiguous" kernel that the TreadMarks literature uses alongside the
// paper's five applications: a diagonally dominant N×N matrix is factored
// in place (no pivoting) with each processor owning a contiguous block of
// rows. At step k the owner of row k publishes it (the pivot row); after a
// barrier every processor eliminates the pivot column from its own rows.
//
// Synchronization is the lock/barrier mix characteristic of the original:
// one barrier per elimination step orders pivot-row publication against
// its consumers, and a lock-protected shared scalar accumulates the
// minimum pivot magnitude (the factorization's singularity monitor).
//
// Rows are allocated page-aligned in the DSM versions — the "contiguous
// block allocation" that gives the SPLASH-2 variant its name and keeps an
// owner's writes from false-sharing a page with its neighbour's rows.
package lu

import (
	"math"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// Params configures one LU run.
type Params struct {
	// N is the matrix dimension.
	N int
	// Seed drives the deterministic matrix entries.
	Seed uint64
	// Platform overrides the cost model.
	Platform *sim.Platform
	// DSM carries the protocol knobs of the DSM-backed implementations
	// (DisableGC, GCPressure — see
	// dsm.Config); the run fills Procs, HeapBytes and Platform itself.
	DSM dsm.Config
}

// Default returns the paper-scale configuration.
func Default() Params { return Params{N: 512, Seed: 27182} }

// Small returns a test-scale configuration.
func Small() Params { return Params{N: 64, Seed: 27182} }

// flop estimates used for virtual-time accounting.
const (
	flopsPerInit   = 6.0 // rng draw + scale per element
	flopsPerElim   = 2.0 // multiply-subtract per trailing element
	flopsPerDigest = 2.0
)

// InitMatrix builds the deterministic row-major N×N input: seeded uniform
// entries with the diagonal boosted to strict dominance, so elimination
// without pivoting is numerically safe and every implementation factors
// the identical matrix.
func InitMatrix(p Params) []float64 { return InitRows(p, 0, p.N) }

// InitRows builds rows [lo, hi) of InitMatrix's matrix, row-major: the RNG
// stream is drawn from the start, rows before lo discarded, so every entry
// is bitwise the full matrix's.
func InitRows(p Params, lo, hi int) []float64 {
	n := p.N
	a := make([]float64, (hi-lo)*n)
	rng := sim.NewRNG(p.Seed)
	for i := 0; i < hi; i++ {
		if i < lo {
			for j := 0; j <= n; j++ { // the row's n entries and its diagonal boost
				rng.Float64()
			}
			continue
		}
		row := a[(i-lo)*n : (i-lo+1)*n]
		for j := range row {
			row[j] = rng.Float64() - 0.5
		}
		// Strict diagonal dominance: |a_ii| > sum_j |a_ij|.
		row[i] = float64(n)/2 + 1 + rng.Float64()
	}
	return a
}

// UpdateRow applies elimination step k to one row: the multiplier lands in
// the L part (column k) and the trailing columns are updated against the
// pivot row. Every implementation calls this with the same operand order,
// so the factored rows agree bitwise across the four versions.
func UpdateRow(row, pivot []float64, k int) {
	l := row[k] / pivot[k]
	row[k] = l
	for j := k + 1; j < len(row); j++ {
		row[j] -= l * pivot[j]
	}
}

// ElimFlops returns the flop charge of one row's update at step k.
func ElimFlops(k, n int) float64 {
	return 10 + flopsPerElim*float64(n-k-1)
}

// DigestRows folds rows [lo, hi) of the factored matrix into the checksum
// partial (sum of absolute values).
func DigestRows(a []float64, n, lo, hi int) float64 {
	var s float64
	for i := lo * n; i < hi*n; i++ {
		s += math.Abs(a[i])
	}
	return s
}

// Checksum combines the factor digest with the minimum pivot magnitude
// (exact in any combining order, so the lock-accumulated parallel minimum
// matches the sequential scan bitwise).
func Checksum(digest, minPivot float64) float64 { return digest + minPivot }

// RunSeq executes the sequential reference implementation.
func RunSeq(p Params) apps.Result {
	n := p.N
	m := sim.NewMeter(p.Platform)
	a := InitMatrix(p)
	m.Compute(flopsPerInit * float64(n*n))

	minPivot := math.MaxFloat64
	for k := 0; k < n; k++ {
		pivot := a[k*n : (k+1)*n]
		if mag := math.Abs(pivot[k]); mag < minPivot {
			minPivot = mag
		}
		for i := k + 1; i < n; i++ {
			UpdateRow(a[i*n:(i+1)*n], pivot, k)
		}
		m.Compute(float64(n-k-1) * ElimFlops(k, n))
	}
	digest := DigestRows(a, n, 0, n)
	m.Compute(flopsPerDigest * float64(n*n))
	return apps.Result{Checksum: Checksum(digest, minPivot), Time: m.Elapsed()}
}
