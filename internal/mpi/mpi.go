// Package mpi is the message-passing substrate for the paper's baseline:
// hand-coded MPI versions of the applications, run over the same simulated
// switch as the DSM but with the MPICH cost profile (TCP: 200 µs empty-
// message round trip, 8.6 MB/s maximum bandwidth — Section 6).
//
// The subset implemented is what the registered applications need: blocking
// standard-mode point-to-point with (source, tag) matching and eager
// buffering, plus binomial-tree collectives (Barrier, Bcast, Reduce,
// Allreduce, Gather, Alltoall). The paper's MPI codes send less data and
// fewer messages than TreadMarks because data and synchronization travel
// together — exactly the behaviour this package reproduces in Table 2.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/network"
	"repro/internal/sim"
)

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// Config describes an MPI world.
type Config struct {
	// Procs is the number of ranks.
	Procs int
	// Platform overrides the calibrated cost model (default
	// sim.DefaultPlatform()).
	Platform *sim.Platform
}

// World is one simulated MPI job.
type World struct {
	cfg   Config
	plat  *sim.Platform
	sw    *network.Switch
	ranks []*Rank

	errOnce sync.Once
	err     error
	done    chan struct{}
}

// Rank is one MPI process. All methods are for the rank's own goroutine.
type Rank struct {
	w       *World
	id      int
	clock   sim.Clock
	ep      *network.Endpoint
	pending []*network.Message // arrived but unmatched (eager buffering)
}

// New creates a world with cfg.Procs ranks.
func New(cfg Config) *World {
	if cfg.Procs <= 0 {
		panic("mpi: Config.Procs must be positive")
	}
	plat := cfg.Platform
	if plat == nil {
		plat = sim.DefaultPlatform()
	}
	w := &World{
		cfg:  cfg,
		plat: plat,
		sw:   network.NewSwitch(cfg.Procs, plat.TCP),
		done: make(chan struct{}),
	}
	for i := 0; i < cfg.Procs; i++ {
		r := &Rank{w: w, id: i}
		r.ep = w.sw.Endpoint(i, &r.clock)
		w.ranks = append(w.ranks, r)
	}
	return w
}

// Switch exposes the interconnect (for statistics).
func (w *World) Switch() *network.Switch { return w.sw }

// Rank returns rank i (for post-run clock and statistics reads).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// MaxClock returns the latest virtual time across ranks.
func (w *World) MaxClock() sim.Time {
	var m sim.Time
	for _, r := range w.ranks {
		if t := r.clock.Now(); t > m {
			m = t
		}
	}
	return m
}

type mpiAbort struct{ cause string }

func (e mpiAbort) Error() string { return "mpi: run aborted: " + e.cause }

// Run executes fn as every rank's program (SPMD) and returns when all
// complete, propagating the first panic as an error.
func (w *World) Run(fn func(r *Rank)) error {
	var wg sync.WaitGroup
	for _, r := range w.ranks {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if _, isAbort := p.(mpiAbort); isAbort {
						return
					}
					w.errOnce.Do(func() {
						w.err = fmt.Errorf("mpi: rank %d: %v", r.id, p)
						close(w.done)
						w.sw.Shutdown()
					})
				}
			}()
			fn(r)
		}(r)
	}
	wg.Wait()
	w.errOnce.Do(func() {
		close(w.done)
		w.sw.Shutdown()
	})
	return w.err
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Procs returns the world size.
func (r *Rank) Procs() int { return r.w.cfg.Procs }

// Now returns the rank's virtual time.
func (r *Rank) Now() sim.Time { return r.clock.Now() }

// Compute charges the virtual cost of flops floating-point operations.
func (r *Rank) Compute(flops float64) {
	r.clock.Advance(r.w.plat.ComputeCost(flops))
}

// Send transmits data to rank `to` with the given tag. Standard mode with
// eager buffering: Send never blocks on the receiver.
func (r *Rank) Send(to, tag int, data []byte) {
	r.clock.Advance(r.w.plat.MPIOverhead)
	r.ep.Send(to, tag, network.ClassRequest, data)
}

// Recv blocks until a message from `from` (or AnySource) with the given
// tag arrives, advances the clock to its arrival, and returns its payload.
func (r *Rank) Recv(from, tag int) []byte {
	m := r.match(from, tag)
	r.clock.AdvanceTo(m.Arrive)
	r.clock.Advance(r.w.plat.MPIOverhead)
	return m.Payload
}

// RecvFrom is Recv that also reports the source rank (for AnySource).
func (r *Rank) RecvFrom(from, tag int) (int, []byte) {
	m := r.match(from, tag)
	r.clock.AdvanceTo(m.Arrive)
	r.clock.Advance(r.w.plat.MPIOverhead)
	return m.From, m.Payload
}

func matches(m *network.Message, from, tag int) bool {
	return m.Type == tag && (from == AnySource || m.From == from)
}

func (r *Rank) match(from, tag int) *network.Message {
	for i, m := range r.pending {
		if matches(m, from, tag) {
			// Delete clears the vacated slot: no delivered payload stays reachable.
			r.pending = slices.Delete(r.pending, i, i+1)
			return m
		}
	}
	for {
		var m *network.Message
		select {
		case m = <-r.ep.Chan(network.ClassRequest):
		case <-r.w.done:
		}
		if m == nil {
			panic(mpiAbort{cause: "switch shut down"})
		}
		if matches(m, from, tag) {
			return m
		}
		r.pending = append(r.pending, m)
	}
}

// Sendrecv sends to `to` and receives from `from` with the same tag,
// without deadlock (both directions are buffered).
func (r *Rank) Sendrecv(to int, sendData []byte, from, tag int) []byte {
	r.Send(to, tag, sendData)
	return r.Recv(from, tag)
}

// SendF64s sends a float64 slice.
func (r *Rank) SendF64s(to, tag int, data []float64) {
	r.Send(to, tag, F64sToBytes(data))
}

// RecvF64s receives a float64 slice.
func (r *Rank) RecvF64s(from, tag int) []float64 {
	return BytesToF64s(r.Recv(from, tag))
}

// F64sToBytes encodes a float64 slice in the wire format of SendF64s —
// exported so applications can pack float payloads for Gather, Bcast, and
// the other []byte collectives without each keeping its own codec.
func F64sToBytes(data []float64) []byte {
	b := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// BytesToF64s decodes the F64sToBytes wire format into a fresh slice.
func BytesToF64s(b []byte) []float64 { return DecodeF64s(nil, b) }

// DecodeF64s decodes the F64sToBytes wire format into dst's storage, grown
// only if short, and returns the len(b)/8 values: how a rank copies a float
// payload, read-only since the switch shares it among receivers, into its own.
func DecodeF64s(dst []float64, b []byte) []float64 {
	dst = slices.Grow(dst[:0], len(b)/8)[:len(b)/8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}
