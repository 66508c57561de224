package qsort

import (
	"repro/internal/apps"
	"repro/internal/core"
)

// RunOMP executes the OpenMP version on the NOW (TreadMarks) backend.
func RunOMP(p Params, procs int) (apps.Result, error) {
	return RunOMPOn(p, procs, core.BackendNOW)
}

// RunOMPOn executes the OpenMP version on the given core backend — the
// source is backend-neutral: a parallel region of task-queue
// workers whose EnQueue/DeQueue use the critical + condition-variable
// pattern of the paper's Figure 4 (Table 1: "parallel region" /
// "critical, condition variables").
func RunOMPOn(p Params, procs int, backend core.BackendKind) (apps.Result, error) {
	prog := core.NewProgram(core.Config{
		Threads:   procs,
		HeapBytes: 8<<20 + 4*p.N + 16*p.QueueCap,
		Platform:  p.Platform,
		Backend:   backend,
		DSM:       p.DSM,
	})
	defer prog.Close()
	s := newSharedQS(p, prog)
	lockID := core.CriticalLockID("qs")

	prog.RegisterRegion("qsort", func(tc *core.TC) {
		s.worker(tc.Worker(), lockID, procs)
	})

	var checksum float64
	sorted := true
	err := prog.Run(func(m *core.MC) {
		keys := Input(p)
		m.Compute(2 * float64(p.N))
		s.initShared(m.Worker(), keys)
		m.Parallel("qsort", core.NoArgs())
		out := make([]int32, p.N)
		m.ReadI32s(s.keysA, out)
		sorted = Sorted(out)
		checksum = Digest(out)
		m.Compute(float64(p.N))
	})
	if err != nil {
		return apps.Result{}, err
	}
	if !sorted {
		return apps.Result{}, errNotSorted
	}
	return apps.Result{Checksum: checksum, Time: prog.Elapsed(), Report: prog.Report()}, nil
}

var errNotSorted = qsortError("qsort: output not sorted")

type qsortError string

func (e qsortError) Error() string { return string(e) }
