package barnes

import (
	"repro/internal/apps"
	"repro/internal/core"
)

// RunOMP executes the OpenMP version on the NOW (TreadMarks) backend.
func RunOMP(p Params, procs int) (apps.Result, error) {
	return RunOMPOn(p, procs, core.BackendNOW)
}

// RunOMPOn executes the OpenMP version on the given core backend — the
// source is backend-neutral. One coarse parallel region in which
// the master thread rebuilds the octree each step and publishes it through
// shared memory, a barrier orders the publication, and every thread then
// traverses the read-shared tree for its contiguous body block. The packed
// body arrays are updated in place, so block boundaries false-share pages
// — the irregular-application stress case for the page-based DSM.
func RunOMPOn(p Params, procs int, backend core.BackendKind) (apps.Result, error) {
	n := p.NBody
	prog := core.NewProgram(core.Config{Threads: procs, Platform: p.Platform, Backend: backend, DSM: p.DSM})
	defer prog.Close()
	posA := prog.SharedPage(8 * 3 * n)
	velA := prog.SharedPage(8 * 3 * n)
	massA := prog.SharedPage(8 * n)
	treeA := prog.SharedPage(treeBytes(n))
	digestRed := prog.NewReduction(core.OpSum)

	prog.RegisterRegion("nbody", func(tc *core.TC) {
		nd := tc.Worker()
		me := tc.ThreadNum()
		lo, hi := core.StaticBlock(0, n, me, procs)
		cnt := 3 * (hi - lo)

		mass := make([]float64, n)
		nd.ReadF64s(massA, mass)
		vel := make([]float64, cnt)
		nd.ReadF64s(velA+core.Addr(8*3*lo), vel)
		pos := make([]float64, 3*n)
		acc := make([]float64, cnt)
		bufs := &treeBufs{tree: newTree(n)}

		eval := func() {
			nd.ReadF64s(posA, pos) // whole array: the traversal is irregular
			if me == 0 {
				bufs.tree.Build(pos, mass, n)
				tc.Compute(buildFlops(bufs.tree))
				writeTree(nd, treeA, bufs, n)
			}
			tc.Barrier()
			t := readTreeInto(nd, treeA, n, bufs)
			inter := AccelRange(t, pos, acc, lo, hi)
			tc.Compute(flopsPerInteract * float64(inter))
		}

		eval()
		for step := 0; step < p.Steps; step++ {
			Kick(vel, acc, 0, hi-lo)
			myPos := pos[3*lo : 3*hi]
			Drift(myPos, vel, 0, hi-lo)
			nd.WriteF64s(posA+core.Addr(8*3*lo), myPos)
			tc.Compute(2 * flopsPerKick * float64(hi-lo))
			tc.Barrier() // everyone's new positions visible before rebuild
			eval()
			Kick(vel, acc, 0, hi-lo)
			tc.Compute(flopsPerKick * float64(hi-lo))
		}

		ke := Kinetic(vel, mass[lo:hi], 0, hi-lo)
		digestRed.Reduce(tc, Digest(pos[3*lo:3*hi], ke, 0, hi-lo))
		tc.Compute(10 * float64(hi-lo))
	})

	var checksum float64
	err := prog.Run(func(m *core.MC) {
		pos, vel, mass := InitBodies(p)
		nd := m.Worker()
		nd.WriteF64s(posA, pos)
		nd.WriteF64s(velA, vel)
		nd.WriteF64s(massA, mass)
		m.Compute(20 * float64(n))
		digestRed.Reset(&m.TC)
		m.Parallel("nbody", core.NoArgs())
		checksum = digestRed.Value(&m.TC)
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: prog.Elapsed(), Report: prog.Report()}, nil
}
