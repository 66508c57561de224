// Package water reproduces the paper's Water application: "Water from the
// SPLASH benchmark suite is a molecular dynamics simulation. The main data
// structure is a one-dimensional array of records in which each record
// represents a molecule. During each time step both intra- and
// inter-molecular potentials are computed. The parallel algorithm
// statically divides the array of molecules into equally sized contiguous
// blocks, assigning each block to a processor. The bulk of the
// interprocessor communication [is] from synchronization that takes place
// during the intermolecular force computation."
//
// Per Table 1 the OpenMP version uses parallel do for the intra-molecular
// phase and a coarse-grained parallel region (plus barriers and the
// paper's array-reduction extension) for the inter-molecular phase.
//
// The physics is a faithful-in-structure simplification of Water-nsquared:
// 3-site molecules, harmonic intra-molecular bonds, LJ oxygen-oxygen plus
// site-site Coulomb inter-molecular terms over all O(n²/2) pairs, velocity
// Verlet integration (the original uses a predictor-corrector; the
// substitution keeps the same data and communication pattern).
package water

import (
	"math"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// Params configures one Water run.
type Params struct {
	// NMol is the number of molecules (SPLASH's default input is 512).
	NMol int
	// Steps is the number of time steps.
	Steps int
	// Seed drives the deterministic initial configuration.
	Seed uint64
	// Platform overrides the cost model.
	Platform *sim.Platform
	// DSM carries the protocol knobs of the DSM-backed implementations
	// (DisableGC, GCPressure — see
	// dsm.Config); the run fills Procs, HeapBytes and Platform itself.
	DSM dsm.Config
}

// Default returns the paper-scale configuration: 512 molecules at 8x the
// original two-step run. Long runs stopped being metadata-bound once the
// metadata garbage collector landed, so the Full scale
// now exercises a genuinely long trajectory.
func Default() Params { return Params{NMol: 512, Steps: 16, Seed: 31415} }

// Small returns a test-scale configuration.
func Small() Params { return Params{NMol: 64, Steps: 2, Seed: 31415} }

// Model constants (reduced units).
const (
	sites   = 3 // O, H1, H2
	dof     = sites * 3
	massO   = 16.0
	massH   = 1.0
	dt      = 0.0005
	kBondOH = 120.0 // harmonic O-H stretch
	r0OH    = 1.0
	kBondHH = 40.0 // harmonic H1-H2 "bend" surrogate
	r0HH    = 1.6
	ljEps   = 0.2 // O-O Lennard-Jones
	ljSig   = 3.0
	qO      = -0.8 // site charges for Coulomb terms
	qH      = +0.4
)

var siteMass = [sites]float64{massO, massH, massH}
var siteCharge = [sites]float64{qO, qH, qH}

// flop estimates used for virtual-time accounting.
const (
	flopsPerPair  = 200.0 // 9 site pairs Coulomb + 1 LJ + bookkeeping
	flopsPerIntra = 90.0
	flopsPerKick  = 30.0
)

// InitState builds the deterministic initial configuration: molecules on a
// cubic lattice with seeded jitter, zero initial velocity.
func InitState(p Params) (pos, vel []float64) {
	n := p.NMol
	pos = make([]float64, n*dof)
	vel = make([]float64, n*dof)
	side := int(math.Ceil(math.Cbrt(float64(n))))
	const spacing = 4.2
	rng := sim.NewRNG(p.Seed)
	for m := 0; m < n; m++ {
		cx := float64(m%side) * spacing
		cy := float64((m/side)%side) * spacing
		cz := float64(m/(side*side)) * spacing
		jx := 0.2 * (rng.Float64() - 0.5)
		jy := 0.2 * (rng.Float64() - 0.5)
		jz := 0.2 * (rng.Float64() - 0.5)
		o := m * dof
		// O at the jittered lattice point; H's offset along x/y.
		pos[o+0], pos[o+1], pos[o+2] = cx+jx, cy+jy, cz+jz
		pos[o+3], pos[o+4], pos[o+5] = cx+jx+r0OH, cy+jy, cz+jz
		pos[o+6], pos[o+7], pos[o+8] = cx+jx-r0OH*0.3, cy+jy+r0OH*0.95, cz+jz
	}
	return pos, vel
}

// IntraForces accumulates intra-molecular forces for molecules [lo, hi)
// into f and returns the potential-energy contribution.
func IntraForces(pos, f []float64, lo, hi int) float64 {
	var pe float64
	for m := lo; m < hi; m++ {
		o := m * dof
		pe += spring(pos, f, o+0, o+3, kBondOH, r0OH)
		pe += spring(pos, f, o+0, o+6, kBondOH, r0OH)
		pe += spring(pos, f, o+3, o+6, kBondHH, r0HH)
	}
	return pe
}

// spring applies a harmonic bond between site offsets a and b.
func spring(pos, f []float64, a, b int, k, r0 float64) float64 {
	dx := pos[a] - pos[b]
	dy := pos[a+1] - pos[b+1]
	dz := pos[a+2] - pos[b+2]
	r := math.Sqrt(dx*dx + dy*dy + dz*dz)
	if r == 0 {
		return 0
	}
	mag := -k * (r - r0) / r
	f[a] += mag * dx
	f[a+1] += mag * dy
	f[a+2] += mag * dz
	f[b] -= mag * dx
	f[b+1] -= mag * dy
	f[b+2] -= mag * dz
	d := r - r0
	return 0.5 * k * d * d
}

// PairForce accumulates the inter-molecular interaction of molecules i and
// j (LJ between oxygens, Coulomb between all site pairs) into f and
// returns the potential energy.
func PairForce(pos, f []float64, i, j int) float64 {
	var pe float64
	oi, oj := i*dof, j*dof
	// Lennard-Jones between the two oxygens.
	{
		dx := pos[oi] - pos[oj]
		dy := pos[oi+1] - pos[oj+1]
		dz := pos[oi+2] - pos[oj+2]
		r2 := dx*dx + dy*dy + dz*dz
		s2 := ljSig * ljSig / r2
		s6 := s2 * s2 * s2
		pe += 4 * ljEps * (s6*s6 - s6)
		mag := 24 * ljEps * (2*s6*s6 - s6) / r2
		f[oi] += mag * dx
		f[oi+1] += mag * dy
		f[oi+2] += mag * dz
		f[oj] -= mag * dx
		f[oj+1] -= mag * dy
		f[oj+2] -= mag * dz
	}
	// Coulomb between all 9 site pairs.
	for a := 0; a < sites; a++ {
		for b := 0; b < sites; b++ {
			pa, pb := oi+3*a, oj+3*b
			dx := pos[pa] - pos[pb]
			dy := pos[pa+1] - pos[pb+1]
			dz := pos[pa+2] - pos[pb+2]
			r2 := dx*dx + dy*dy + dz*dz
			r := math.Sqrt(r2)
			q := siteCharge[a] * siteCharge[b]
			pe += q / r
			mag := q / (r2 * r)
			f[pa] += mag * dx
			f[pa+1] += mag * dy
			f[pa+2] += mag * dz
			f[pb] -= mag * dx
			f[pb+1] -= mag * dy
			f[pb+2] -= mag * dz
		}
	}
	return pe
}

// PairsOf calls visit(j) for every partner of molecule i under the
// balanced wraparound half-shell schedule: each unordered pair appears
// exactly once across all i.
func PairsOf(i, n int, visit func(j int)) {
	half := (n - 1) / 2
	for k := 1; k <= half; k++ {
		visit((i + k) % n)
	}
	if n%2 == 0 && i < n/2 {
		visit(i + n/2)
	}
}

// PairCount returns the number of pairs molecule i owns under PairsOf.
func PairCount(i, n int) float64 {
	c := float64((n - 1) / 2)
	if n%2 == 0 && i < n/2 {
		c++
	}
	return c
}

// InterForcesRange accumulates inter-molecular forces for the pairs owned
// by molecules [lo, hi) into f and returns the potential energy.
func InterForcesRange(pos, f []float64, lo, hi, n int) float64 {
	var pe float64
	for i := lo; i < hi; i++ {
		PairsOf(i, n, func(j int) {
			pe += PairForce(pos, f, i, j)
		})
	}
	return pe
}

// Kick applies a half-step velocity update for molecules [lo, hi).
func Kick(vel, f []float64, lo, hi int) {
	for m := lo; m < hi; m++ {
		for s := 0; s < sites; s++ {
			b := m*dof + 3*s
			h := 0.5 * dt / siteMass[s]
			vel[b] += h * f[b]
			vel[b+1] += h * f[b+1]
			vel[b+2] += h * f[b+2]
		}
	}
}

// Drift applies a full-step position update for molecules [lo, hi).
func Drift(pos, vel []float64, lo, hi int) {
	for i := lo * dof; i < hi*dof; i++ {
		pos[i] += dt * vel[i]
	}
}

// Kinetic returns the kinetic energy of molecules [lo, hi).
func Kinetic(vel []float64, lo, hi int) float64 {
	var ke float64
	for m := lo; m < hi; m++ {
		for s := 0; s < sites; s++ {
			b := m*dof + 3*s
			v2 := vel[b]*vel[b] + vel[b+1]*vel[b+1] + vel[b+2]*vel[b+2]
			ke += 0.5 * siteMass[s] * v2
		}
	}
	return ke
}

// Digest folds positions and kinetic energy into the run checksum.
func Digest(pos []float64, ke float64, lo, hi int) float64 {
	var s float64
	for i := lo * dof; i < hi*dof; i++ {
		s += math.Abs(pos[i])
	}
	return s + ke
}

// interFlops returns the flop charge of the pairs owned by [lo, hi).
func interFlops(lo, hi, n int) float64 {
	var c float64
	for i := lo; i < hi; i++ {
		c += PairCount(i, n)
	}
	return c * flopsPerPair
}

// RunSeq executes the sequential reference implementation.
func RunSeq(p Params) apps.Result {
	n := p.NMol
	m := sim.NewMeter(p.Platform)
	pos, vel := InitState(p)
	m.Compute(30 * float64(n))

	f := make([]float64, n*dof)
	eval := func() {
		for i := range f {
			f[i] = 0
		}
		IntraForces(pos, f, 0, n)
		InterForcesRange(pos, f, 0, n, n)
		m.Compute(flopsPerIntra*float64(n) + interFlops(0, n, n))
	}
	eval()
	for step := 0; step < p.Steps; step++ {
		Kick(vel, f, 0, n)
		Drift(pos, vel, 0, n)
		m.Compute(2 * flopsPerKick * float64(n))
		eval()
		Kick(vel, f, 0, n)
		m.Compute(flopsPerKick * float64(n))
	}
	ke := Kinetic(vel, 0, n)
	m.Compute(10 * float64(n))
	return apps.Result{Checksum: Digest(pos, ke, 0, n), Time: m.Elapsed()}
}
