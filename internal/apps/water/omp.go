package water

import (
	"repro/internal/apps"
	"repro/internal/core"
)

// RunOMP executes the OpenMP version on the NOW (TreadMarks) backend.
func RunOMP(p Params, procs int) (apps.Result, error) {
	return RunOMPOn(p, procs, core.BackendNOW)
}

// RunOMPOn executes the OpenMP version on the given core backend — the
// source is backend-neutral. Per Table 1, Water uses parallel do
// (intra-molecular phase), a coarse-grained parallel region for the
// inter-molecular phase ("to avoid excessive synchronization... we divide
// the molecules among the nodes and have one thread work on all the
// molecules on the same node"), and barriers. Force contributions merge
// through per-thread partial arrays separated by a barrier, the standard
// SPLASH scheme.
func RunOMPOn(p Params, procs int, backend core.BackendKind) (apps.Result, error) {
	return RunOMPCfg(p, procs, core.Config{Threads: procs, Platform: p.Platform, Backend: backend, DSM: p.DSM})
}

// RunOMPCfg executes the OpenMP version with full control over the core
// configuration (home policy, barrier fan-in, …) — the entry point the
// protocol-level regression tests and ablations use.
func RunOMPCfg(p Params, procs int, cfg core.Config) (apps.Result, error) {
	return RunOMPDump(p, procs, cfg, nil)
}

// RunOMPDump is RunOMPCfg additionally returning the final position array
// through dump (when non-nil) so protocol regression tests can localize a
// divergence to specific molecules and pages, not just the folded checksum.
func RunOMPDump(p Params, procs int, cfg core.Config, dump *[]float64) (apps.Result, error) {
	n := p.NMol
	bytesArr := 8 * n * dof
	prog := core.NewProgram(cfg)
	defer prog.Close()
	posA := prog.SharedPage(bytesArr)
	velA := prog.SharedPage(bytesArr)
	forceA := prog.SharedPage(bytesArr)
	partBytes := core.PageRound(bytesArr)
	partials := prog.SharedPage(partBytes * procs)
	keRed := prog.NewReduction(core.OpSum)
	block := func(id int) (int, int) { return core.StaticBlock(0, n, id, procs) }

	// forces: full evaluation into per-thread partials, barrier, merge of
	// each thread's own slice, optional trailing half-kick (arg!=0).
	prog.RegisterRegion("forces", func(tc *core.TC) {
		doKick := tc.Args().Int() != 0
		me := tc.ThreadNum()
		lo, hi := block(me)

		pos := make([]float64, n*dof)
		tc.ReadF64s(posA, pos) // whole array: the inter phase reads every molecule
		f := make([]float64, n*dof)
		IntraForces(pos, f, lo, hi)
		InterForcesRange(pos, f, lo, hi, n)
		tc.Compute(flopsPerIntra*float64(hi-lo) + interFlops(lo, hi, n))

		tc.WriteF64s(partials+core.Addr(partBytes*me), f)
		tc.Barrier()

		// Merge own slice across all partials.
		sum := make([]float64, (hi-lo)*dof)
		buf := make([]float64, (hi-lo)*dof)
		for t := 0; t < procs; t++ {
			tc.ReadF64s(partials+core.Addr(partBytes*t+8*lo*dof), buf)
			for i := range sum {
				sum[i] += buf[i]
			}
		}
		tc.Compute(float64(procs * (hi - lo) * dof))
		tc.WriteF64s(forceA+core.Addr(8*lo*dof), sum)

		if doKick {
			vel := make([]float64, (hi-lo)*dof)
			tc.ReadF64s(velA+core.Addr(8*lo*dof), vel)
			Kick(vel, sum, 0, hi-lo)
			tc.WriteF64s(velA+core.Addr(8*lo*dof), vel)
			tc.Compute(flopsPerKick * float64(hi-lo))
		}
	})

	// kickdrift: first half-kick plus position drift for the own block
	// (parallel do over molecules).
	prog.RegisterDo("kickdrift", func(tc *core.TC, lo, hi int) {
		cnt := (hi - lo) * dof
		vel := make([]float64, cnt)
		f := make([]float64, cnt)
		pos := make([]float64, cnt)
		tc.ReadF64s(velA+core.Addr(8*lo*dof), vel)
		tc.ReadF64s(forceA+core.Addr(8*lo*dof), f)
		tc.ReadF64s(posA+core.Addr(8*lo*dof), pos)
		Kick(vel, f, 0, hi-lo)
		Drift(pos, vel, 0, hi-lo)
		tc.WriteF64s(velA+core.Addr(8*lo*dof), vel)
		tc.WriteF64s(posA+core.Addr(8*lo*dof), pos)
		tc.Compute(2 * flopsPerKick * float64(hi-lo))
	})

	// ke: kinetic energy of the own block into a scalar reduction.
	prog.RegisterDo("ke", func(tc *core.TC, lo, hi int) {
		vel := make([]float64, (hi-lo)*dof)
		tc.ReadF64s(velA+core.Addr(8*lo*dof), vel)
		keRed.Reduce(tc, Kinetic(vel, 0, hi-lo))
		tc.Compute(10 * float64(hi-lo))
	})

	var checksum float64
	err := prog.Run(func(m *core.MC) {
		// init: the master seeds positions and velocities (sequential, as
		// in the original program).
		pos, vel := InitState(p)
		m.WriteF64s(posA, pos)
		m.WriteF64s(velA, vel)
		m.Compute(30 * float64(n))
		m.Parallel("forces", core.NoArgs().Int(0)) // initial evaluation
		for step := 0; step < p.Steps; step++ {
			m.ParallelDo("kickdrift", 0, n, core.NoArgs())
			m.Parallel("forces", core.NoArgs().Int(1))
		}
		keRed.Reset(&m.TC)
		m.ParallelDo("ke", 0, n, core.NoArgs())
		final := make([]float64, n*dof)
		m.ReadF64s(posA, final)
		checksum = Digest(final, keRed.Value(&m.TC), 0, n)
		if dump != nil {
			*dump = final
		}
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: checksum, Time: prog.Elapsed(), Report: prog.Report()}, nil
}
