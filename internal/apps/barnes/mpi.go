package barnes

import (
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
	"repro/internal/mpi"
)

// RunMPI executes the message-passing version: the octree build is
// replicated on every rank over a replicated position array (the standard
// message-passing Barnes-Hut trade — redundant computation instead of
// fine-grained sharing), refreshed by an allgather each step. Only each
// rank's own velocity block is maintained.
func RunMPI(p Params, procs int) (apps.Result, error) {
	n := p.NBody
	world := mpi.New(mpi.Config{Procs: procs, Platform: p.Platform})

	var mu sync.Mutex
	var checksum float64

	err := world.Run(func(r *mpi.Rank) {
		me, np := r.ID(), r.Procs()
		lo, hi := core.StaticBlock(0, n, me, np)
		cnt := 3 * (hi - lo)

		pos, velFull, mass := InitBodies(p) // deterministic: same on every rank
		vel := make([]float64, cnt)
		copy(vel, velFull[3*lo:3*hi])
		r.Compute(20 * float64(n) / float64(np))

		acc := make([]float64, cnt)
		t := newTree(n) // kept for the run, rebuilt in place each step
		eval := func() {
			t.Build(pos, mass, n)
			r.Compute(buildFlops(t)) // replicated on every rank
			inter := AccelRange(t, pos, acc, lo, hi)
			r.Compute(flopsPerInteract * float64(inter))
		}

		allgatherPos := func() {
			mpi.DecodeF64s(pos, r.Allgather(mpi.F64sToBytes(pos[3*lo:3*hi])))
		}

		eval()
		for step := 0; step < p.Steps; step++ {
			Kick(vel, acc, 0, hi-lo)
			myPos := pos[3*lo : 3*hi]
			Drift(myPos, vel, 0, hi-lo)
			r.Compute(2 * flopsPerKick * float64(hi-lo))
			allgatherPos()
			eval()
			Kick(vel, acc, 0, hi-lo)
			r.Compute(flopsPerKick * float64(hi-lo))
		}

		ke := Kinetic(vel, mass[lo:hi], 0, hi-lo)
		part := Digest(pos[3*lo:3*hi], ke, 0, hi-lo)
		r.Compute(10 * float64(hi-lo))
		sums := r.Reduce(mpi.OpSum, []float64{part})
		if me == 0 {
			mu.Lock()
			checksum = sums[0]
			mu.Unlock()
		}
	})
	if err != nil {
		return apps.Result{}, err
	}
	msgs, bytes := world.Switch().Stats().Snapshot()
	return apps.Result{Checksum: checksum, Time: world.MaxClock(), Report: dsm.Report{Messages: msgs, Bytes: bytes}}, nil
}
