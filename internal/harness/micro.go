package harness

import (
	"fmt"
	"io"

	"repro/internal/dsm"
	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/sim"
)

// MicroResults holds the Section 6 platform characteristics, measured on
// the simulated platform with the same microbenchmark structure the
// TreadMarks papers used.
type MicroResults struct {
	UDPRoundTrip  sim.Time // 1-byte request/reply over the DSM transport
	LockLow       sim.Time // 2-hop lock acquire (manager was last holder)
	LockHigh      sim.Time // 3-hop lock acquire + diff piggyback
	Barrier8      sim.Time // 8-processor barrier
	DiffLow       sim.Time // small diff fetch (one word modified)
	DiffHigh      sim.Time // full-page diff fetch
	TCPRoundTrip  sim.Time // empty MPI message round trip
	TCPBandwidth  float64  // MB/s for a 1 MB transfer
	PageFaultCold sim.Time // first fetch of a page another node wrote
	FirstTouch    sim.Time // first touch of a page nobody wrote: local zeros, no message
	SpanFetch8    sim.Time // one 8-page cold access: a single span round to one home
}

// Micro measures the platform characteristics reported in Section 6.
func Micro() (MicroResults, error) {
	var out MicroResults

	// UDP 1-byte round trip, on the raw simulated wire.
	{
		plat := sim.DefaultPlatform()
		sw := network.NewSwitch(2, plat.UDP)
		var c0, c1 sim.Clock
		e0, e1 := sw.Endpoint(0, &c0), sw.Endpoint(1, &c1)
		done := make(chan struct{})
		var echoErr error
		go func() {
			// An endpoint panic (switch torn down underneath the echo)
			// must surface as a measurement error, not kill the process
			// with this drain goroutine (tripwire analyzer enforces
			// this).
			defer func() {
				if r := recover(); r != nil {
					echoErr = fmt.Errorf("udp echo: %v", r)
				}
				close(done)
			}()
			m := e1.RecvRaw(network.ClassRequest)
			e1.SendAt(m.From, 1, network.ClassReply, []byte{1}, m.Arrive)
		}()
		e0.Send(1, 1, network.ClassRequest, []byte{1})
		m := e0.Recv(network.ClassReply)
		<-done
		if echoErr != nil {
			return out, echoErr
		}
		out.UDPRoundTrip = m.Arrive
	}

	// Lock acquire times, low (2-hop: manager holds the token) and high
	// (3-hop through a third node, with a dirty page to diff).
	{
		sys := dsm.New(dsm.Config{Procs: 3})
		defer sys.Close()
		a := sys.MallocPage(8)
		var low, high sim.Time
		sys.Register("lock-micro", func(n *dsm.Node, _ []byte) {
			// Phase 1: node 1 acquires lock 0 (manager node 0 holds it).
			if n.ID() == 1 {
				t0 := n.Now()
				n.Acquire(0)
				low = n.Now() - t0
				n.WriteI64(a, 42)
				n.Release(0)
			}
			n.Barrier()
			// Phase 2: node 2 acquires; the manager forwards to node 1,
			// whose grant carries the write notice of page a.
			if n.ID() == 2 {
				t0 := n.Now()
				n.Acquire(0)
				high = n.Now() - t0
				n.Release(0)
			}
			n.Barrier()
		})
		if err := sys.Run(func(n *dsm.Node) { n.RunParallel("lock-micro", nil) }); err != nil {
			return out, err
		}
		out.LockLow, out.LockHigh = low, high
	}

	// 8-processor barrier: the manager's wait plus broadcast, measured at
	// a slave (arrival to departure).
	{
		sys := dsm.New(dsm.Config{Procs: 8})
		defer sys.Close()
		var cost sim.Time
		sys.Register("barrier-micro", func(n *dsm.Node, _ []byte) {
			n.Barrier() // warm: everyone running
			t0 := n.Now()
			n.Barrier()
			if n.ID() == 7 {
				cost = n.Now() - t0
			}
		})
		if err := sys.Run(func(n *dsm.Node) { n.RunParallel("barrier-micro", nil) }); err != nil {
			return out, err
		}
		out.Barrier8 = cost
	}

	// Cold fault and diff fetch: node 1 first reads a page node 0 wrote
	// before the fork (one whole-page fetch) and a page nobody wrote (local
	// zeros); then node 0 modifies the first page (one word / whole page)
	// and node 1 faults and fetches the diff.
	for _, full := range []bool{false, true} {
		// GC off: a collecting episode would flush the reader's
		// stale copy at the barrier between write and read, turning both
		// variants into identical whole-page refetches. This micro pins
		// the cost of the raw diff-fetch primitive itself.
		sys := dsm.New(dsm.Config{Procs: 2, DisableGC: true})
		defer sys.Close()
		a := sys.MallocPage(dsm.PageSize)
		untouched := sys.MallocPage(dsm.PageSize)
		var cold, first, fetch sim.Time
		isFull := full
		sys.Register("diff-micro", func(n *dsm.Node, _ []byte) {
			if n.ID() == 1 {
				t0 := n.Now()
				_ = n.ReadI64(a) // cold fetch of the written page
				cold = n.Now() - t0
				t0 = n.Now()
				_ = n.ReadI64(untouched)
				first = n.Now() - t0
			}
			n.Barrier()
			if n.ID() == 0 {
				if isFull {
					buf := make([]byte, dsm.PageSize)
					for i := range buf {
						buf[i] = byte(i)
					}
					n.WriteBytes(a, buf)
				} else {
					n.WriteI64(a, 99)
				}
			}
			n.Barrier()
			if n.ID() == 1 {
				t0 := n.Now()
				_ = n.ReadI64(a)
				fetch = n.Now() - t0
			}
			n.Barrier()
		})
		if err := sys.Run(func(n *dsm.Node) {
			n.WriteI64(a+8, 7)
			n.RunParallel("diff-micro", nil)
		}); err != nil {
			return out, err
		}
		if full {
			out.DiffHigh = fetch
		} else {
			out.DiffLow = fetch
			out.PageFaultCold, out.FirstTouch = cold, first
		}
	}

	// Span fetch: node 1 reads eight cold pages node 0 wrote — one source —
	// in a single call, which the DSM resolves in one fault round (one
	// request, one 33 KB reply) instead of eight.
	{
		sys := dsm.New(dsm.Config{Procs: 2})
		defer sys.Close()
		a := sys.MallocPage(dsm.HomeBlockPages * dsm.PageSize)
		var span sim.Time
		sys.Register("span-micro", func(n *dsm.Node, _ []byte) {
			if n.ID() == 1 {
				t0 := n.Now()
				n.ReadBytes(a, make([]byte, dsm.HomeBlockPages*dsm.PageSize))
				span = n.Now() - t0
			}
		})
		if err := sys.Run(func(n *dsm.Node) {
			for p := 0; p < dsm.HomeBlockPages; p++ {
				n.WriteI64(a+dsm.Addr(p*dsm.PageSize), 1)
			}
			n.RunParallel("span-micro", nil)
		}); err != nil {
			return out, err
		}
		out.SpanFetch8 = span
	}

	// MPI (TCP) empty-message round trip and bandwidth.
	{
		world := mpi.New(mpi.Config{Procs: 2})
		var rtt sim.Time
		var bw float64
		err := world.Run(func(r *mpi.Rank) {
			if r.ID() == 0 {
				t0 := r.Now()
				r.Send(1, 1, nil)
				r.Recv(1, 2)
				rtt = r.Now() - t0
				t1 := r.Now()
				r.Send(1, 3, make([]byte, 1<<20))
				r.Recv(1, 4) // symmetric 1 MB echo
				oneWay := (r.Now() - t1) / 2
				bw = (1 << 20) / oneWay.Seconds() / 1e6
			} else {
				r.Recv(0, 1)
				r.Send(0, 2, nil)
				r.Recv(0, 3)
				r.Send(0, 4, make([]byte, 1<<20))
			}
		})
		if err != nil {
			return out, err
		}
		out.TCPRoundTrip = rtt
		out.TCPBandwidth = bw
	}
	return out, nil
}

// PrintMicro formats the Section 6 paragraph as a table.
func PrintMicro(w io.Writer) error {
	m, err := Micro()
	if err != nil {
		return err
	}
	fprintf(w, "Section 6 platform characteristics (simulated testbed)\n\n")
	fprintf(w, "%-44s %12s\n", "UDP/IP 1-byte round-trip latency", m.UDPRoundTrip)
	fprintf(w, "%-44s %12s\n", "lock acquisition, low (2-hop)", m.LockLow)
	fprintf(w, "%-44s %12s\n", "lock acquisition, high (3-hop + notices)", m.LockHigh)
	fprintf(w, "%-44s %12s\n", "8-processor barrier", m.Barrier8)
	fprintf(w, "%-44s %12s\n", "diff fetch, low (1 word)", m.DiffLow)
	fprintf(w, "%-44s %12s\n", "diff fetch, high (full page)", m.DiffHigh)
	fprintf(w, "%-44s %12s\n", "cold page fault (written page)", m.PageFaultCold)
	fprintf(w, "%-44s %12s\n", "first touch of an untouched page", m.FirstTouch)
	fprintf(w, "%-44s %12s\n", "8-page span fetch (one home)", m.SpanFetch8)
	fprintf(w, "%-44s %12s\n", "MPICH/TCP empty-message round trip", m.TCPRoundTrip)
	fprintf(w, "%-44s %9.1f MB/s\n", "MPICH/TCP bandwidth (1MB transfer)", m.TCPBandwidth)
	return nil
}
