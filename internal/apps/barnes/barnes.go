// Package barnes adds the SPLASH Barnes-Hut N-body simulation, the
// irregular-sharing workload of the TreadMarks literature: gravitating
// bodies interact through an octree whose traversal touches a
// data-dependent, unpredictable subset of the body array. On a page-based
// DSM this is the stress case — the body arrays are deliberately packed
// (not page-padded per processor), so neighbouring processors' position
// writes false-share boundary pages, and the tree itself moves through
// shared memory as one bulk object rebuilt every step.
//
// Parallelization follows the classic DSM port: bodies are statically
// blocked across processors; node 0 rebuilds the octree each step and
// publishes it; after a barrier every processor computes forces for its
// own block by traversing the (read-shared) tree, then integrates and
// writes back its own positions. The MPI version replicates the tree
// build on every rank and allgathers positions each step.
//
// All numeric kernels are pure functions of the body arrays (see
// tree.go), so the four implementations compute bitwise-identical
// per-body results and are cross-checked via the usual checksum.
package barnes

import (
	"math"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// Params configures one Barnes-Hut run.
type Params struct {
	// NBody is the number of bodies.
	NBody int
	// Steps is the number of leapfrog time steps.
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

// Default returns the paper-scale configuration: 4096 bodies at 8x the
// original two-step run (long runs stopped being metadata-bound once the
// DSM's metadata collectors landed).
func Default() Params { return Params{NBody: 4096, Steps: 16, Seed: 16180} }

// Small returns a test-scale configuration.
func Small() Params { return Params{NBody: 96, Steps: 2, Seed: 16180} }

// Model constants (reduced units).
const (
	theta = 0.6  // opening angle
	eps   = 0.05 // gravitational softening
	dt    = 0.01
)

// flop estimates used for virtual-time accounting.
const (
	flopsPerInteract = 30.0 // one body-cell interaction
	flopsPerBuild    = 12.0 // one tree insertion/finalization step
	flopsPerKick     = 10.0
)

// InitBodies builds the deterministic initial configuration: bodies
// uniform in a unit-ish cube with seeded masses and small random
// velocities.
func InitBodies(p Params) (pos, vel, mass []float64) {
	n := p.NBody
	pos = make([]float64, 3*n)
	vel = make([]float64, 3*n)
	mass = make([]float64, n)
	rng := sim.NewRNG(p.Seed)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			pos[3*i+d] = rng.Float64()*2 - 1
			vel[3*i+d] = 0.1 * (rng.Float64() - 0.5)
		}
		mass[i] = (0.5 + rng.Float64()) / float64(n)
	}
	return pos, vel, mass
}

// AccelRange computes Barnes-Hut accelerations for bodies [lo, hi) into
// acc (packed [x y z], indexed from lo) and returns the interaction count.
func AccelRange(t *Tree, pos, acc []float64, lo, hi int) int {
	total := 0
	for i := lo; i < hi; i++ {
		ax, ay, az, inter := t.Accel(pos, i, theta, eps)
		b := 3 * (i - lo)
		acc[b], acc[b+1], acc[b+2] = ax, ay, az
		total += inter
	}
	return total
}

// Kick applies a half-step velocity update for bodies [lo, hi) of vel
// (acc indexed from lo).
func Kick(vel, acc []float64, lo, hi int) {
	for i := 3 * lo; i < 3*hi; i++ {
		vel[i] += 0.5 * dt * acc[i-3*lo]
	}
}

// Drift applies a full-step position update for bodies [lo, hi).
func Drift(pos, vel []float64, lo, hi int) {
	for i := 3 * lo; i < 3*hi; i++ {
		pos[i] += dt * vel[i]
	}
}

// Kinetic returns the kinetic energy of bodies [lo, hi).
func Kinetic(vel, mass []float64, lo, hi int) float64 {
	var ke float64
	for i := lo; i < hi; i++ {
		b := 3 * i
		v2 := vel[b]*vel[b] + vel[b+1]*vel[b+1] + vel[b+2]*vel[b+2]
		ke += 0.5 * mass[i] * v2
	}
	return ke
}

// Digest folds positions and kinetic energy of bodies [lo, hi) into the
// run checksum partial.
func Digest(pos []float64, ke float64, lo, hi int) float64 {
	var s float64
	for i := 3 * lo; i < 3*hi; i++ {
		s += math.Abs(pos[i])
	}
	return s + ke
}

// buildFlops returns the flop charge of one tree build.
func buildFlops(t *Tree) float64 { return flopsPerBuild * float64(t.Work) }

// RunSeq executes the sequential reference implementation.
func RunSeq(p Params) apps.Result {
	n := p.NBody
	m := sim.NewMeter(p.Platform)
	pos, vel, mass := InitBodies(p)
	m.Compute(20 * float64(n))

	acc := make([]float64, 3*n)
	t := newTree(n)
	eval := func() {
		t.Build(pos, mass, n)
		m.Compute(buildFlops(t))
		inter := AccelRange(t, pos, acc, 0, n)
		m.Compute(flopsPerInteract * float64(inter))
	}
	eval()
	for step := 0; step < p.Steps; step++ {
		Kick(vel, acc, 0, n)
		Drift(pos, vel, 0, n)
		m.Compute(2 * flopsPerKick * float64(n))
		eval()
		Kick(vel, acc, 0, n)
		m.Compute(flopsPerKick * float64(n))
	}
	ke := Kinetic(vel, mass, 0, n)
	m.Compute(10 * float64(n))
	return apps.Result{Checksum: Digest(pos, ke, 0, n), Time: m.Elapsed()}
}
