package qsort

import (
	"repro/internal/apps"
	"repro/internal/dsm"
)

// tmkLock is the lock id backing the critical section in the hand-coded
// TreadMarks version.
const tmkLock = 11

// RunTmk executes the hand-coded TreadMarks version: the identical
// Figure 4 task queue written against Tmk locks and condition variables.
func RunTmk(p Params, procs int) (apps.Result, error) {
	cfg := p.DSM
	cfg.Procs, cfg.Platform = procs, p.Platform
	cfg.HeapBytes = 8<<20 + 4*p.N + 16*p.QueueCap
	sys := dsm.New(cfg)
	defer sys.Close()
	s := newSharedQS(p, sys)

	sys.Register("qsort", func(nd *dsm.Node, _ []byte) {
		s.worker(nd, tmkLock, procs)
	})

	var checksum float64
	sorted := true
	err := sys.Run(func(nd *dsm.Node) {
		keys := Input(p)
		nd.Compute(2 * float64(p.N))
		s.initShared(nd, keys)
		nd.RunParallel("qsort", nil)
		out := make([]int32, p.N)
		nd.ReadI32s(s.keysA, out)
		sorted = Sorted(out)
		checksum = Digest(out)
		nd.Compute(float64(p.N))
	})
	if err != nil {
		return apps.Result{}, err
	}
	if !sorted {
		return apps.Result{}, errNotSorted
	}
	return apps.Result{Checksum: checksum, Time: sys.MaxClock(), Report: sys.Report()}, nil
}
