package barnes

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
)

// RunTmk executes the hand-coded TreadMarks version: the same
// master-builds-tree, barrier, everyone-traverses structure written
// directly against the DSM, with per-processor digest partials combined by
// node 0 after the last barrier.
func RunTmk(p Params, procs int) (apps.Result, error) {
	n := p.NBody
	cfg := p.DSM
	cfg.Procs, cfg.Platform = procs, p.Platform
	sys := dsm.New(cfg)
	defer sys.Close()
	posA := sys.MallocPage(8 * 3 * n)
	velA := sys.MallocPage(8 * 3 * n)
	massA := sys.MallocPage(8 * n)
	treeA := sys.MallocPage(treeBytes(n))
	digPart := sys.MallocPage(dsm.PageSize * procs)
	out := sys.MallocPage(8)

	sys.Register("nbody-main", func(nd *dsm.Node, _ []byte) {
		me := nd.ID()
		lo, hi := core.StaticBlock(0, n, me, procs)
		cnt := 3 * (hi - lo)

		mass := make([]float64, n)
		nd.ReadF64s(massA, mass)
		vel := make([]float64, cnt)
		nd.ReadF64s(velA+dsm.Addr(8*3*lo), vel)
		pos := make([]float64, 3*n)
		acc := make([]float64, cnt)
		bufs := &treeBufs{tree: newTree(n)}

		eval := func() {
			nd.ReadF64s(posA, pos)
			if me == 0 {
				bufs.tree.Build(pos, mass, n)
				nd.Compute(buildFlops(bufs.tree))
				writeTree(nd, treeA, bufs, n)
			}
			nd.Barrier()
			t := readTreeInto(nd, treeA, n, bufs)
			inter := AccelRange(t, pos, acc, lo, hi)
			nd.Compute(flopsPerInteract * float64(inter))
		}

		eval()
		for step := 0; step < p.Steps; step++ {
			Kick(vel, acc, 0, hi-lo)
			myPos := pos[3*lo : 3*hi]
			Drift(myPos, vel, 0, hi-lo)
			nd.WriteF64s(posA+dsm.Addr(8*3*lo), myPos)
			nd.Compute(2 * flopsPerKick * float64(hi-lo))
			nd.Barrier()
			eval()
			Kick(vel, acc, 0, hi-lo)
			nd.Compute(flopsPerKick * float64(hi-lo))
		}

		ke := Kinetic(vel, mass[lo:hi], 0, hi-lo)
		nd.WriteF64(digPart+dsm.Addr(dsm.PageSize*me), Digest(pos[3*lo:3*hi], ke, 0, hi-lo))
		nd.Compute(10 * float64(hi-lo))
		nd.Barrier()
		if me == 0 {
			var total float64
			for t := 0; t < procs; t++ {
				total += nd.ReadF64(digPart + dsm.Addr(dsm.PageSize*t))
			}
			nd.WriteF64(out, total)
		}
	})

	var checksum float64
	err := sys.Run(func(nd *dsm.Node) {
		pos, vel, mass := InitBodies(p)
		nd.WriteF64s(posA, pos)
		nd.WriteF64s(velA, vel)
		nd.WriteF64s(massA, mass)
		nd.Compute(20 * float64(n))
		nd.RunParallel("nbody-main", nil)
		checksum = nd.ReadF64(out)
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: sys.MaxClock(), Report: sys.Report()}, nil
}
