package core

import (
	"repro/internal/dsm"
	"repro/internal/sim"
)

// dsmBackend is the NOW backend: TreadMarks on the simulated network of
// workstations. It is a thin adapter — *dsm.Node already implements
// Worker, so regions and the master run directly on their nodes.
type dsmBackend struct {
	sys *dsm.System
}

func newDSMBackend(cfg Config) *dsmBackend {
	return &dsmBackend{sys: dsm.New(dsmConfig(cfg, cfg.Threads))}
}

func (b *dsmBackend) Procs() int               { return b.sys.Procs() }
func (b *dsmBackend) Malloc(size int) Addr     { return b.sys.Malloc(size) }
func (b *dsmBackend) MallocPage(size int) Addr { return b.sys.MallocPage(size) }

func (b *dsmBackend) Register(name string, fn func(w Worker, arg []byte) []byte) {
	b.sys.RegisterTail(name, func(n *dsm.Node, arg []byte) []byte { return fn(n, arg) })
}

func (b *dsmBackend) Run(master func(w Worker)) error {
	return b.sys.Run(func(n *dsm.Node) { master(n) })
}

func (b *dsmBackend) MaxClock() sim.Time { return b.sys.MaxClock() }

func (b *dsmBackend) Report() dsm.Report { return b.sys.Report() }

// Close shuts the DSM system down: without it, the P protocol servers
// started at construction outlive the backend — on a never-Run backend
// they outlive it forever.
func (b *dsmBackend) Close() error { return b.sys.Close() }

var _ Backend = (*dsmBackend)(nil)
