package tsp

import (
	"repro/internal/apps"
	"repro/internal/core"
)

// tspCritical names the single critical section protecting every shared
// TSP structure (pool, queue, free stack, best, nwait).
const tspCritical = "tsp"

// RunOMP executes the OpenMP version on the NOW (TreadMarks) backend.
func RunOMP(p Params, procs int) (apps.Result, error) {
	return RunOMPOn(p, procs, core.BackendNOW)
}

// RunOMPOn executes the OpenMP version on the given core backend — the
// source is backend-neutral: a parallel region of workers
// synchronized by critical sections only (Table 1).
func RunOMPOn(p Params, procs int, backend core.BackendKind) (apps.Result, error) {
	prog := core.NewProgram(core.Config{Threads: procs, Platform: p.Platform, Backend: backend, DSM: p.DSM})
	defer prog.Close()
	s := newSharedTSP(p, prog)
	d := Cities(p)
	minInc := minIncident(d)

	prog.RegisterRegion("bb", func(tc *core.TC) {
		// Each thread recomputes the (read-only) distance matrix
		// privately, as the original program holds it in per-process
		// memory after startup.
		tc.Compute(float64(p.NCities * p.NCities * 12))
		s.worker(tc.Worker(), core.CriticalLockID(tspCritical), procs, d, minInc)
	})

	var best float64
	err := prog.Run(func(m *core.MC) {
		m.Compute(float64(p.NCities * p.NCities * 12))
		s.initShared(m.Worker(), d, minInc)
		m.Parallel("bb", core.NoArgs())
		best = m.ReadF64(s.bestA)
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: best, Time: prog.Elapsed(), Report: prog.Report()}, nil
}
