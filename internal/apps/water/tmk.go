package water

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
)

// RunTmk executes the hand-coded TreadMarks version: one SPMD region with
// explicit barriers, per-processor partial force arrays, and node 0
// performing the sequential setup — the structure of the original
// TreadMarks Water port.
func RunTmk(p Params, procs int) (apps.Result, error) {
	n := p.NMol
	bytesArr := 8 * n * dof
	cfg := p.DSM
	cfg.Procs, cfg.Platform = procs, p.Platform
	sys := dsm.New(cfg)
	defer sys.Close()
	posA := sys.MallocPage(bytesArr)
	velA := sys.MallocPage(bytesArr)
	forceA := sys.MallocPage(bytesArr)
	partBytes := core.PageRound(bytesArr)
	partials := sys.MallocPage(partBytes * procs)
	kePart := sys.MallocPage(dsm.PageSize * procs)
	out := sys.MallocPage(8)
	block := func(id int) (int, int) { return core.StaticBlock(0, n, id, procs) }

	sys.Register("water-main", func(nd *dsm.Node, _ []byte) {
		me := nd.ID()
		lo, hi := block(me)
		cnt := (hi - lo) * dof

		eval := func(doKick bool) {
			pos := make([]float64, n*dof)
			nd.ReadF64s(posA, pos)
			f := make([]float64, n*dof)
			IntraForces(pos, f, lo, hi)
			InterForcesRange(pos, f, lo, hi, n)
			nd.Compute(flopsPerIntra*float64(hi-lo) + interFlops(lo, hi, n))
			nd.WriteF64s(partials+dsm.Addr(partBytes*me), f)
			nd.Barrier()
			sum := make([]float64, cnt)
			buf := make([]float64, cnt)
			for t := 0; t < procs; t++ {
				nd.ReadF64s(partials+dsm.Addr(partBytes*t+8*lo*dof), buf)
				for i := range sum {
					sum[i] += buf[i]
				}
			}
			nd.Compute(float64(procs * cnt))
			nd.WriteF64s(forceA+dsm.Addr(8*lo*dof), sum)
			if doKick {
				vel := make([]float64, cnt)
				nd.ReadF64s(velA+dsm.Addr(8*lo*dof), vel)
				Kick(vel, sum, 0, hi-lo)
				nd.WriteF64s(velA+dsm.Addr(8*lo*dof), vel)
				nd.Compute(flopsPerKick * float64(hi-lo))
			}
			nd.Barrier()
		}

		eval(false)
		for step := 0; step < p.Steps; step++ {
			vel := make([]float64, cnt)
			f := make([]float64, cnt)
			pos := make([]float64, cnt)
			nd.ReadF64s(velA+dsm.Addr(8*lo*dof), vel)
			nd.ReadF64s(forceA+dsm.Addr(8*lo*dof), f)
			nd.ReadF64s(posA+dsm.Addr(8*lo*dof), pos)
			Kick(vel, f, 0, hi-lo)
			Drift(pos, vel, 0, hi-lo)
			nd.WriteF64s(velA+dsm.Addr(8*lo*dof), vel)
			nd.WriteF64s(posA+dsm.Addr(8*lo*dof), pos)
			nd.Compute(2 * flopsPerKick * float64(hi-lo))
			nd.Barrier() // everyone's new positions visible before eval
			eval(true)
		}

		vel := make([]float64, cnt)
		nd.ReadF64s(velA+dsm.Addr(8*lo*dof), vel)
		nd.WriteF64(kePart+dsm.Addr(dsm.PageSize*me), Kinetic(vel, 0, hi-lo))
		nd.Compute(10 * float64(hi-lo))
		nd.Barrier()
		if me == 0 {
			var ke float64
			for t := 0; t < procs; t++ {
				ke += nd.ReadF64(kePart + dsm.Addr(dsm.PageSize*t))
			}
			pos := make([]float64, n*dof)
			nd.ReadF64s(posA, pos)
			nd.WriteF64(out, Digest(pos, ke, 0, n))
		}
	})

	var checksum float64
	err := sys.Run(func(nd *dsm.Node) {
		pos, vel := InitState(p)
		nd.WriteF64s(posA, pos)
		nd.WriteF64s(velA, vel)
		nd.Compute(30 * float64(n))
		nd.RunParallel("water-main", nil)
		checksum = nd.ReadF64(out)
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: sys.MaxClock(), Report: sys.Report()}, nil
}
