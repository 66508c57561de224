package water

import (
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
	"repro/internal/mpi"
)

// RunMPI executes the message-passing version: every rank keeps a private
// replica of the positions (refreshed by an allgather each step), computes
// the partial forces of its own pair block, and merges them with an
// allreduce — data and synchronization travel together, which is why MPI
// sends far fewer messages than the DSM versions in Table 2.
func RunMPI(p Params, procs int) (apps.Result, error) {
	n := p.NMol
	world := mpi.New(mpi.Config{Procs: procs, Platform: p.Platform})

	var mu sync.Mutex
	var checksum float64

	err := world.Run(func(r *mpi.Rank) {
		me, np := r.ID(), r.Procs()
		lo, hi := core.StaticBlock(0, n, me, np)
		cnt := (hi - lo) * dof

		pos, velFull := InitState(p) // deterministic: every rank builds the same state
		vel := make([]float64, cnt)
		copy(vel, velFull[lo*dof:hi*dof])
		r.Compute(30 * float64(n) / float64(np))

		force := make([]float64, cnt)
		f := make([]float64, n*dof)
		eval := func() {
			clear(f)
			IntraForces(pos, f, lo, hi)
			InterForcesRange(pos, f, lo, hi, n)
			r.Compute(flopsPerIntra*float64(hi-lo) + interFlops(lo, hi, n))
			total := r.Allreduce(mpi.OpSum, f)
			copy(force, total[lo*dof:hi*dof])
		}

		allgatherPos := func() {
			mpi.DecodeF64s(pos, r.Allgather(mpi.F64sToBytes(pos[lo*dof:hi*dof])))
		}

		eval()
		for step := 0; step < p.Steps; step++ {
			Kick(vel, force, 0, hi-lo)
			myPos := pos[lo*dof : hi*dof]
			for i := range myPos {
				myPos[i] += dt * vel[i]
			}
			r.Compute(2 * flopsPerKick * float64(hi-lo))
			allgatherPos()
			eval()
			Kick(vel, force, 0, hi-lo)
			r.Compute(flopsPerKick * float64(hi-lo))
		}

		ke := r.Reduce(mpi.OpSum, []float64{Kinetic(vel, 0, hi-lo)})
		r.Compute(10 * float64(hi-lo))
		if me == 0 {
			mu.Lock()
			checksum = Digest(pos, ke[0], 0, n)
			mu.Unlock()
		}
	})
	if err != nil {
		return apps.Result{}, err
	}
	msgs, bytes := world.Switch().Stats().Snapshot()
	return apps.Result{Checksum: checksum, Time: world.MaxClock(), Report: dsm.Report{Messages: msgs, Bytes: bytes}}, nil
}
