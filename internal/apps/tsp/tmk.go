package tsp

import (
	"repro/internal/apps"
	"repro/internal/dsm"
)

// tmkLock is the hand-picked lock id of the TreadMarks version (any id
// works; the protocol places its manager at id mod procs).
const tmkLock = 7

// RunTmk executes the hand-coded TreadMarks version: identical worker
// structure, written against Tmk_lock_acquire/Tmk_lock_release directly.
func RunTmk(p Params, procs int) (apps.Result, error) {
	cfg := p.DSM
	cfg.Procs, cfg.Platform = procs, p.Platform
	sys := dsm.New(cfg)
	defer sys.Close()
	s := newSharedTSP(p, sys)
	d := Cities(p)
	minInc := minIncident(d)

	sys.Register("bb", func(nd *dsm.Node, _ []byte) {
		nd.Compute(float64(p.NCities * p.NCities * 12))
		s.worker(nd, tmkLock, procs, d, minInc)
	})

	var best float64
	err := sys.Run(func(nd *dsm.Node) {
		nd.Compute(float64(p.NCities * p.NCities * 12))
		s.initShared(nd, d, minInc)
		nd.RunParallel("bb", nil)
		best = nd.ReadF64(s.bestA)
	})
	if err != nil {
		return apps.Result{}, err
	}
	return apps.Result{Checksum: best, Time: sys.MaxClock(), Report: sys.Report()}, nil
}
