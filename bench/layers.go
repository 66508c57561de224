package main

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/ompc"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The per-layer drivers. Each times batches of calls into one layer's
// public API (the model is harness.Micro) and reads the counters those
// calls already return; nothing here reaches inside internal/. A *_ns or
// *_us value is HOST time per operation, the median over the driver's
// batches; a *_virt_us value is the modelled cost of the same operation,
// read off the virtual clock of the node that performed it.

// drivers carries one traced run's driver state: where values go, the
// span every driver hangs under, and the operation tally.
type drivers struct {
	v           map[string]float64
	tr          *tracer
	parent      int // current driver span
	smoke       bool
	ops, failed int
}

// runDrivers runs every layer's driver under root and returns the
// operations (batches) attempted and failed.
func runDrivers(v map[string]float64, tr *tracer, root int, opt options) (ops, failed int) {
	d := &drivers{v: v, tr: tr, smoke: opt.smoke}
	for _, l := range []struct {
		layer string
		run   func()
	}{
		{"sim", d.simLayer},
		{"network", d.networkLayer},
		{"dsm", d.dsmPagePath},
		{"dsm", d.dsmLocks},
		{"dsm", d.dsmSemaCond},
		{"dsm", d.dsmBarriers},
		{"dsm", d.dsmGCAndLifecycle},
		{"mpi", d.mpiLayer},
		{"core", d.coreLayer},
		{"ompc", d.ompcLayer},
		{"apps", d.appsLayer},
		{"harness", d.harnessLayer},
		{"serve", func() { d.serveLayer(opt.seed) }},
	} {
		d.parent = tr.begin(root, l.layer, "driver "+l.layer)
		l.run()
		tr.end(d.parent, nil)
	}
	return d.ops, d.failed
}

// n scales an operation count down for the smoke profile.
func (d *drivers) n(full int) int {
	if d.smoke {
		return max(full/20, 2)
	}
	return full
}

func (d *drivers) reps() int {
	if d.smoke {
		return 1
	}
	return 5
}

// probe is what one batch measured: host nanoseconds and virtual time
// spent on its operations, and any bytes it put on the wire.
type probe struct {
	hostNS int64
	virt   sim.Time
	bytes  int64
}

// batches runs prog reps times, one span each, and returns the median
// host ns, the virtual µs and the wire bytes per operation. A batch that
// returns an error counts as a failed operation.
func (d *drivers) batches(layer, name string, ops int, prog func() (probe, error)) (hostNS, virtUS, bytes float64) {
	var host []float64
	var last probe
	for r := 0; r < d.reps(); r++ {
		id := d.tr.begin(d.parent, layer, name)
		p, err := prog()
		d.tr.end(id, map[string]int64{"ops": int64(ops), "host_ns": p.hostNS, "virtual_ns": int64(p.virt), "bytes": p.bytes})
		d.ops++
		if err != nil {
			fmt.Fprintf(logw, "FAIL driver %s: %v\n", name, err)
			d.failed++
			continue
		}
		host = append(host, float64(p.hostNS)/float64(ops))
		last = p
	}
	return median(host), last.virt.Micros() / float64(ops), float64(last.bytes) / float64(ops)
}

// hostOnly is batches for a plain function with no simulated system.
func (d *drivers) hostOnly(layer, name string, ops int, fn func()) float64 {
	host, _, _ := d.batches(layer, name, ops, func() (probe, error) {
		t0 := nowNS()
		fn()
		return probe{hostNS: nowNS() - t0}, nil
	})
	return host
}

// watch brackets the measured part of a simulated program.
type watch struct {
	host int64
	virt sim.Time
}

func start(now sim.Time) watch { return watch{nowNS(), now} }

func (w watch) stop(now sim.Time) probe { return probe{hostNS: nowNS() - w.host, virt: now - w.virt} }

// ---------------------------------------------------------------- sim

func (d *drivers) simLayer() {
	n := d.n(1_000_000)
	var c sim.Clock
	d.v["sim.clock_advance_ns"] = d.hostOnly("sim", "Clock.Advance", n, func() {
		for i := 0; i < n; i++ {
			c.Advance(1)
		}
	})
	d.v["sim.clock_advance_to_ns"] = d.hostOnly("sim", "Clock.AdvanceTo", n, func() {
		t := c.Now()
		for i := 0; i < n; i++ {
			t++
			c.AdvanceTo(t)
		}
	})
	m := sim.NewMeter(nil)
	d.v["sim.meter_compute_ns"] = d.hostOnly("sim", "Meter.Compute", n, func() {
		for i := 0; i < n; i++ {
			m.Compute(100)
		}
	})
}

// ------------------------------------------------------------ network

// pingPong bounces n round trips of size-byte messages between two
// endpoints and returns the probe plus the heap objects allocated.
func pingPong(n, size int) (probe, uint64, error) {
	sw := network.NewSwitch(2, sim.DefaultPlatform().UDP)
	defer sw.Shutdown()
	var c0, c1 sim.Clock
	e0, e1 := sw.Endpoint(0, &c0), sw.Endpoint(1, &c1)
	payload := make([]byte, size)
	done := make(chan error, 1)
	go func() {
		// The echo consumes endpoint traffic: a panic here must come
		// back as the batch's error, not kill the process (tripwire).
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("echo: %v", r)
			}
		}()
		for i := 0; i < n; i++ {
			m := e1.Recv(network.ClassRequest)
			if m == nil {
				done <- fmt.Errorf("echo: switch went down")
				return
			}
			e1.Send(0, 1, network.ClassReply, m.Payload)
		}
		done <- nil
	}()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := start(c0.Now())
	for i := 0; i < n; i++ {
		e0.Send(1, 1, network.ClassRequest, payload)
		if e0.Recv(network.ClassReply) == nil {
			return probe{}, 0, fmt.Errorf("ping: switch went down")
		}
	}
	p := w.stop(c0.Now())
	runtime.ReadMemStats(&m1)
	_, p.bytes = sw.Stats().Snapshot()
	return p, m1.Mallocs - m0.Mallocs, <-done
}

func (d *drivers) networkLayer() {
	n := d.n(20_000)
	var mallocs uint64
	run := func(size int) func() (probe, error) {
		return func() (probe, error) {
			p, m, err := pingPong(n, size)
			mallocs = m
			return p, err
		}
	}
	d.v["network.send_recv_ns"], _, _ = d.batches("network", "ping-pong 64B", n, run(64))
	d.v["network.allocs_per_msg"] = float64(mallocs) / float64(2*n)
	d.v["network.send_recv_4k_ns"], _, _ = d.batches("network", "ping-pong 4KiB", n, run(4096))
	_, d.v["network.rtt_virt_us"], _ = d.batches("network", "ping-pong 1B", n, run(1))

	// One-way sends into a queue nobody drains until the burst is over:
	// the burst stays under the switch's queue depth (4096).
	burst := d.n(2000)
	sends := func(name string, send func(e *network.Endpoint, payload []byte) bool) float64 {
		return d.hostOnlyErr("network", name, burst, func() (int64, error) {
			sw := network.NewSwitch(2, sim.DefaultPlatform().UDP)
			defer sw.Shutdown()
			var c0, c1 sim.Clock
			e0, e1 := sw.Endpoint(0, &c0), sw.Endpoint(1, &c1)
			payload := make([]byte, 256)
			t0 := nowNS()
			for i := 0; i < burst; i++ {
				if !send(e0, payload) {
					return 0, fmt.Errorf("%s: send %d refused", name, i)
				}
			}
			ns := nowNS() - t0
			for i := 0; i < burst; i++ {
				if e1.TryRecvRaw(network.ClassRequest) == nil {
					return 0, fmt.Errorf("%s: message %d missing", name, i)
				}
			}
			return ns, nil
		})
	}
	parts := []network.FramePart{{Type: 1, Bytes: 64}, {Type: 2, Bytes: 64}, {Type: 3, Bytes: 64}, {Type: 4, Bytes: 64}}
	d.v["network.frame_send_ns"] = sends("SendFrameAt 4 parts", func(e *network.Endpoint, payload []byte) bool {
		e.SendFrameAt(1, 9, network.ClassRequest, payload, parts, 0)
		return true
	})
	d.v["network.try_send_ns"] = sends("TrySendAt", func(e *network.Endpoint, payload []byte) bool {
		return e.TrySendAt(1, 1, network.ClassRequest, payload, 0)
	})
}

// hostOnlyErr is hostOnly for a body that times itself and can fail.
func (d *drivers) hostOnlyErr(layer, name string, ops int, fn func() (int64, error)) float64 {
	host, _, _ := d.batches(layer, name, ops, func() (probe, error) {
		ns, err := fn()
		return probe{hostNS: ns}, err
	})
	return host
}

// ---------------------------------------------------------------- dsm

// runDSM runs master on a fresh system and closes it.
func runDSM(cfg dsm.Config, setup func(*dsm.System), master func(n *dsm.Node)) error {
	sys := dsm.New(cfg)
	defer sys.Close()
	setup(sys)
	return sys.Run(master)
}

func (d *drivers) dsmPagePath() {
	// Cold faults: node 1 reads the first word of pages homed at node 0
	// (block-cyclic homes alternate in 8-page blocks on two nodes).
	cold := d.n(256)
	host, virt, _ := d.batches("dsm", "cold page fault", cold, func() (probe, error) {
		var p probe
		var base dsm.Addr
		err := runDSM(dsm.Config{Procs: 2}, func(sys *dsm.System) {
			base = sys.MallocPage(2 * cold * dsm.PageSize)
			sys.Register("cold", func(n *dsm.Node, _ []byte) {
				if n.ID() != 1 {
					return
				}
				w := start(n.Now())
				for i := 0; i < 2*cold; i++ {
					if (i/dsm.HomeBlockPages)%2 == 0 {
						if n.ReadI64(base+dsm.Addr(i*dsm.PageSize)) != 0 {
							panic("cold page not zero")
						}
					}
				}
				p = w.stop(n.Now())
			})
		}, func(n *dsm.Node) { n.RunParallel("cold", nil) })
		return p, err
	})
	d.v["dsm.page_fault_cold_ns"], d.v["dsm.page_fault_cold_virt_us"] = host, virt

	// Diff fetches: node 0 dirties pages (one word, or every byte), node 1
	// reads them after the barrier. GC is off, as in harness.Micro: the
	// barrier-epoch collector would flush the reader's stale copies and
	// turn both variants into whole-page refetches.
	const pages = 32
	rounds := d.n(16)
	for _, full := range []bool{false, true} {
		name := "dsm.diff_fetch_word"
		if full {
			name = "dsm.diff_fetch_page"
		}
		host, virt, _ := d.batches("dsm", name[4:], rounds*pages, func() (probe, error) {
			var p probe
			var base dsm.Addr
			err := runDSM(dsm.Config{Procs: 2, DisableGC: true}, func(sys *dsm.System) {
				base = sys.MallocPage(pages * dsm.PageSize)
				sys.Register("diff", func(n *dsm.Node, _ []byte) {
					buf := make([]byte, dsm.PageSize)
					for r := 0; r <= rounds; r++ { // round 0 warms node 1's copies
						if n.ID() == 0 {
							for i := 0; i < pages; i++ {
								a := base + dsm.Addr(i*dsm.PageSize)
								if full {
									for j := range buf {
										buf[j] = byte(r + j)
									}
									n.WriteBytes(a, buf)
								}
								n.WriteI64(a, int64(r+1))
							}
						}
						n.Barrier()
						if n.ID() == 1 {
							w := start(n.Now())
							for i := 0; i < pages; i++ {
								if got := n.ReadI64(base + dsm.Addr(i*dsm.PageSize)); got != int64(r+1) {
									panic(fmt.Sprintf("diff fetch read %d, want %d", got, r+1))
								}
							}
							if q := w.stop(n.Now()); r > 0 {
								p.hostNS += q.hostNS
								p.virt += q.virt
							}
						}
						n.Barrier()
					}
				})
			}, func(n *dsm.Node) { n.RunParallel("diff", nil) })
			return p, err
		})
		d.v[name+"_ns"], d.v[name+"_virt_us"] = host, virt
	}

	// Hits: node 0 on a page it owns and has already written.
	hits := d.n(1_000_000)
	hit := func(name string, ops int, body func(n *dsm.Node, a dsm.Addr)) float64 {
		host, _, _ := d.batches("dsm", name, ops, func() (probe, error) {
			var p probe
			var a dsm.Addr
			err := runDSM(dsm.Config{Procs: 2}, func(sys *dsm.System) { a = sys.MallocPage(dsm.PageSize) }, func(n *dsm.Node) {
				n.WriteF64(a, 1)
				w := start(n.Now())
				body(n, a)
				p = w.stop(n.Now())
			})
			return p, err
		})
		return host
	}
	d.v["dsm.read_hit_ns"] = hit("read hit", hits, func(n *dsm.Node, a dsm.Addr) {
		for i := 0; i < hits; i++ {
			if n.ReadF64(a) != 1 {
				panic("read hit lost the value")
			}
		}
	})
	d.v["dsm.write_hit_ns"] = hit("write hit", hits, func(n *dsm.Node, a dsm.Addr) {
		for i := 0; i < hits; i++ {
			n.WriteF64(a, 1)
		}
	})
	bulk := d.n(50_000)
	d.v["dsm.bulk_read_hit_ns_per_KB"] = hit("bulk read hit 4KiB", 4*bulk, func(n *dsm.Node, a dsm.Addr) {
		dst := make([]float64, dsm.PageSize/8)
		for i := 0; i < bulk; i++ {
			n.ReadF64s(a, dst)
		}
	})
}

// regionBytes runs a parallel region from the master and returns the
// bytes it put on the wire beyond what an empty region costs, measured
// between quiescent points (every slave idle, waiting for the next fork).
// The system must have an empty region registered as "noop".
func regionBytes(n *dsm.Node, region string) int64 {
	snap := func() int64 { _, b := n.Sys().Switch().Stats().Snapshot(); return b }
	b0 := snap()
	n.RunParallel(region, nil)
	b1 := snap()
	n.RunParallel("noop", nil)
	return (b1 - b0) - (snap() - b1)
}

func (d *drivers) dsmLocks() {
	// Local: the manager re-acquires a lock whose token never left.
	local := d.n(200_000)
	d.v["dsm.lock_local_ns"], _, _ = d.batches("dsm", "lock local", local, func() (probe, error) {
		var p probe
		err := runDSM(dsm.Config{Procs: 2}, func(*dsm.System) {}, func(n *dsm.Node) {
			w := start(n.Now())
			for i := 0; i < local; i++ {
				n.Acquire(0)
				n.Release(0)
			}
			p = w.stop(n.Now())
		})
		return p, err
	})

	// Remote: locks 3k are managed by node 0 of three. Node 1 takes each
	// for the first time (request + grant: 2 hops) and writes a shared
	// word under it; then node 2 takes each (request, forward to node 1,
	// grant carrying node 1's write notices: 3 hops).
	k := d.n(400)
	var two, three probe
	var handoffBytes int64
	phase := func(who int, out *probe, a dsm.Addr) dsm.RegionFunc {
		return func(n *dsm.Node, _ []byte) {
			if n.ID() != who {
				return
			}
			n.WriteI64(a+dsm.Addr(8*who), 0) // fault the page in before timing
			w := start(n.Now())
			for i := 1; i <= k; i++ {
				n.Acquire(3 * i)
				n.WriteI64(a, n.ReadI64(a)+1)
				n.Release(3 * i)
			}
			*out = w.stop(n.Now())
		}
	}
	h2, v2, _ := d.batches("dsm", "lock 2-hop", k, func() (probe, error) {
		var a dsm.Addr
		err := runDSM(dsm.Config{Procs: 3}, func(sys *dsm.System) {
			a = sys.MallocPage(dsm.PageSize)
			sys.Register("noop", func(*dsm.Node, []byte) {})
			sys.Register("two-hop", phase(1, &two, a))
			sys.Register("three-hop", phase(2, &three, a))
		}, func(n *dsm.Node) {
			n.RunParallel("two-hop", nil)
			handoffBytes = regionBytes(n, "three-hop")
			if got := n.ReadI64(a); got != int64(2*k) {
				panic(fmt.Sprintf("lock counter %d, want %d", got, 2*k))
			}
		})
		return two, err
	})
	d.v["dsm.lock_2hop_ns"], d.v["dsm.lock_2hop_virt_us"] = h2, v2
	// The same runs measured the 3-hop phase; their last batch is kept.
	d.v["dsm.lock_3hop_ns"] = float64(three.hostNS) / float64(k)
	d.v["dsm.lock_3hop_virt_us"] = three.virt.Micros() / float64(k)
	d.v["dsm.bytes_per_lock_handoff"] = float64(handoffBytes) / float64(k)
}

func (d *drivers) dsmSemaCond() {
	// In both programs the semaphores and the lock are managed by node 2,
	// which takes no part: the manager's interrupt charges then land on
	// an idle node's clock, and the participants' virtual times do not
	// depend on which of two racing requests the host delivered first.

	// Semaphore ping-pong between nodes 0 and 1: two handoffs per round,
	// each a signal to the manager and the manager's grant to the waiter.
	const semaA, semaB = 2, 5
	rounds := d.n(2000)
	host, virt, _ := d.batches("dsm", "sema handoff", 2*rounds, func() (probe, error) {
		var p probe
		err := runDSM(dsm.Config{Procs: 3}, func(sys *dsm.System) {
			sys.Register("sema", func(n *dsm.Node, _ []byte) {
				switch n.ID() {
				case 0:
					w := start(n.Now())
					for i := 0; i < rounds; i++ {
						n.SemaSignal(semaA)
						n.SemaWait(semaB)
					}
					p = w.stop(n.Now())
				case 1:
					for i := 0; i < rounds; i++ {
						n.SemaWait(semaA)
						n.SemaSignal(semaB)
					}
				}
			})
		}, func(n *dsm.Node) { n.RunParallel("sema", nil) })
		return p, err
	})
	d.v["dsm.sema_handoff_ns"], d.v["dsm.sema_handoff_virt_us"] = host, virt

	// Condition variable: node 1 waits under the lock, node 0 signals.
	// The ready semaphore is posted while node 1 still holds the lock, so
	// node 0's acquire is only granted by the wait's release: every
	// signal finds its waiter registered.
	const lock, cond, ready = 2, 1, 8
	signals := d.n(1000)
	host, virt, _ = d.batches("dsm", "cond signal", signals, func() (probe, error) {
		var p probe
		err := runDSM(dsm.Config{Procs: 3}, func(sys *dsm.System) {
			sys.Register("cond", func(n *dsm.Node, _ []byte) {
				switch n.ID() {
				case 0:
					w := start(n.Now())
					for i := 0; i < signals; i++ {
						n.SemaWait(ready)
						n.Acquire(lock)
						n.CondSignal(cond, lock)
						n.Release(lock)
					}
					p = w.stop(n.Now())
				case 1:
					for i := 0; i < signals; i++ {
						n.Acquire(lock)
						n.SemaSignal(ready)
						n.CondWait(cond, lock)
						n.Release(lock)
					}
				}
			})
		}, func(n *dsm.Node) { n.RunParallel("cond", nil) })
		return p, err
	})
	d.v["dsm.cond_signal_ns"], d.v["dsm.cond_signal_virt_us"] = host, virt
}

func (d *drivers) dsmBarriers() {
	for _, c := range []struct{ procs, barriers int }{{8, 400}, {32, 100}, {128, 30}} {
		procs, k := c.procs, d.n(c.barriers)
		if d.smoke {
			procs = min(procs, 8)
		}
		var fork probe
		var barrierBytes int64
		forks := d.n(200)
		host, virt, _ := d.batches("dsm", fmt.Sprintf("barrier p%d", c.procs), k, func() (probe, error) {
			var p probe
			err := runDSM(dsm.Config{Procs: procs}, func(sys *dsm.System) {
				sys.Register("noop", func(*dsm.Node, []byte) {})
				sys.Register("barriers", func(n *dsm.Node, _ []byte) {
					w := start(n.Now())
					for i := 0; i < k; i++ {
						n.Barrier()
					}
					if n.ID() == 0 {
						p = w.stop(n.Now())
					}
				})
			}, func(n *dsm.Node) {
				barrierBytes = regionBytes(n, "barriers")
				if c.procs == 8 {
					w := start(n.Now())
					for i := 0; i < forks; i++ {
						n.RunParallel("noop", nil)
					}
					fork = w.stop(n.Now())
				}
			})
			return p, err
		})
		d.v[fmt.Sprintf("dsm.barrier_p%d_ns", c.procs)] = host
		d.v[fmt.Sprintf("dsm.barrier_p%d_virt_us", c.procs)] = virt
		if c.procs == 8 {
			d.v["dsm.bytes_per_barrier_p8"] = float64(barrierBytes) / float64(k)
			d.v["dsm.fork_join_p8_ns"] = float64(fork.hostNS) / float64(forks)
			d.v["dsm.fork_join_p8_virt_us"] = fork.virt.Micros() / float64(forks)
		}
	}
}

func (d *drivers) dsmGCAndLifecycle() {
	// One barrier-epoch collection: eight nodes each dirty 64 pages of
	// their own between barriers; the cost of an episode with the
	// collector on, less the same episode with it off.
	const procs, dirty = 8, 64
	episodes := d.n(20)
	episode := func(disableGC bool) (float64, float64) {
		host, virt, _ := d.batches("dsm", fmt.Sprintf("barrier episode gc-off=%v", disableGC), episodes, func() (probe, error) {
			var p probe
			var base dsm.Addr
			err := runDSM(dsm.Config{Procs: procs, DisableGC: disableGC}, func(sys *dsm.System) {
				base = sys.MallocPage(procs * dirty * dsm.PageSize)
				sys.Register("episodes", func(n *dsm.Node, _ []byte) {
					var w watch
					for e := 0; e <= episodes; e++ { // episode 0 faults the pages in
						if e == 1 {
							w = start(n.Now())
						}
						for j := 0; j < dirty; j++ {
							n.WriteI64(base+dsm.Addr((n.ID()*dirty+j)*dsm.PageSize), int64(e))
						}
						n.Barrier()
					}
					if n.ID() == 0 {
						p = w.stop(n.Now())
					}
				})
			}, func(n *dsm.Node) { n.RunParallel("episodes", nil) })
			return p, err
		})
		return host, virt
	}
	onH, onV := episode(false)
	offH, offV := episode(true)
	d.v["dsm.gc_barrier_epoch_ns"], d.v["dsm.gc_barrier_epoch_virt_us"] = onH-offH, onV-offV

	// One acquire epoch: the lock/semaphore kernel behind the GC
	// ablation, host time per epoch its lock-manager consensus announced.
	rounds := d.n(64)
	var epochs int64
	host := d.hostOnlyErr("dsm", "GCLockSparse", 1, func() (int64, error) {
		t0 := nowNS()
		sys, err := harness.GCLockSparse(8, rounds, harness.AcquireGCPressure(8), "")
		ns := nowNS() - t0
		if err != nil {
			return 0, err
		}
		if epochs = sys.GCSummary().AcqEpochs; epochs == 0 && !d.smoke {
			return 0, fmt.Errorf("GCLockSparse announced no acquire epoch")
		}
		return ns, nil
	})
	d.v["dsm.gc_acquire_epoch_us"] = host / 1e3 / float64(max(epochs, 1))

	for _, c := range []struct{ procs, n int }{{8, 40}, {64, 5}} {
		n := d.n(c.n)
		d.v[fmt.Sprintf("dsm.new_close_p%d_us", c.procs)] = d.hostOnlyErr("dsm", fmt.Sprintf("New+Close p%d", c.procs), n, func() (int64, error) {
			t0 := nowNS()
			for i := 0; i < n; i++ {
				if err := dsm.New(dsm.Config{Procs: c.procs}).Close(); err != nil {
					return 0, err
				}
			}
			return nowNS() - t0, nil
		}) / 1e3
	}
}

// ---------------------------------------------------------------- mpi

// runMPI runs fn on every rank of a fresh world; rank 0's probe counts.
func (d *drivers) runMPI(name string, procs, ops int, fn func(r *mpi.Rank)) (hostNS, virtUS float64) {
	host, virt, _ := d.batches("mpi", name, ops, func() (probe, error) {
		var p probe
		err := mpi.New(mpi.Config{Procs: procs}).Run(func(r *mpi.Rank) {
			w := start(r.Now())
			fn(r)
			if r.ID() == 0 {
				p = w.stop(r.Now())
			}
		})
		return p, err
	})
	return host, virt
}

func (d *drivers) mpiLayer() {
	n := d.n(5000)
	d.v["mpi.sendrecv_ns"], d.v["mpi.rtt_virt_us"] = d.runMPI("empty round trip", 2, n, func(r *mpi.Rank) {
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				r.Send(1, 1, nil)
				r.Recv(1, 2)
			} else {
				r.Recv(0, 1)
				r.Send(0, 2, nil)
			}
		}
	})
	// Bandwidth as harness.Micro measures it: a symmetric 1 MB echo.
	const mb = 1 << 20
	_, echoUS := d.runMPI("1 MB echo", 2, 1, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, make([]byte, mb))
			r.Recv(1, 4)
		} else {
			r.Recv(0, 3)
			r.Send(0, 4, make([]byte, mb))
		}
	})
	d.v["mpi.bw_virt_MBps"] = mb / (echoUS / 2) // bytes per µs = MB/s
	nb := d.n(500)
	d.v["mpi.barrier_p8_ns"], _ = d.runMPI("barrier p8", 8, nb, func(r *mpi.Rank) {
		for i := 0; i < nb; i++ {
			r.Barrier()
		}
	})
	nr := d.n(300)
	d.v["mpi.allreduce_p8_ns"], d.v["mpi.allreduce_p8_virt_us"] = d.runMPI("allreduce p8 64 f64", 8, nr, func(r *mpi.Rank) {
		data := make([]float64, 64)
		for i := range data {
			data[i] = 1
		}
		for i := 0; i < nr; i++ {
			if got := r.Allreduce(mpi.OpSum, data); got[0] != 8 {
				panic(fmt.Sprintf("allreduce gave %v, want 8", got[0]))
			}
		}
	})
	na := d.n(200)
	d.v["mpi.alltoall_p8_ns"], d.v["mpi.alltoall_p8_virt_us"] = d.runMPI("alltoall p8 1KiB", 8, na, func(r *mpi.Rank) {
		chunks := make([][]byte, 8)
		for i := range chunks {
			chunks[i] = make([]byte, 1024)
			chunks[i][0] = byte(r.ID())
		}
		for i := 0; i < na; i++ {
			for from, c := range r.Alltoall(chunks) {
				if c[0] != byte(from) {
					panic("alltoall delivered the wrong chunk")
				}
			}
		}
	})
}

// --------------------------------------------------------------- core

func (d *drivers) coreLayer() {
	const threads = 8
	forks, crits, reds := d.n(200), d.n(200), d.n(100)
	for _, b := range []struct {
		name string
		kind core.BackendKind
	}{{"now", core.BackendNOW}, {"smp", core.BackendSMP}, {"hybrid", core.BackendHybrid}} {
		var fork, crit, red probe
		host, virt, _ := d.batches("core", "fork/join "+b.name, forks, func() (probe, error) {
			prog := core.NewProgram(core.Config{Threads: threads, Backend: b.kind})
			defer prog.Close()
			sum := prog.NewReduction(core.OpSum)
			prog.RegisterRegion("noop", func(*core.TC) {})
			prog.RegisterRegion("critical", func(tc *core.TC) {
				for i := 0; i < crits; i++ {
					tc.Critical("c", func() {})
				}
			})
			prog.RegisterRegion("reduce", func(tc *core.TC) { sum.Reduce(tc, 1) })
			err := prog.Run(func(m *core.MC) {
				w := start(m.Now())
				for i := 0; i < forks; i++ {
					m.Parallel("noop", core.NoArgs())
				}
				fork = w.stop(m.Now())
				if b.kind == core.BackendHybrid {
					return
				}
				w = start(m.Now())
				m.Parallel("critical", core.NoArgs())
				crit = w.stop(m.Now())
				w = start(m.Now())
				for i := 0; i < reds; i++ {
					sum.Reset(&m.TC)
					m.Parallel("reduce", core.NoArgs())
					if got := sum.Value(&m.TC); got != threads {
						panic(fmt.Sprintf("reduction gave %v, want %d", got, threads))
					}
				}
				red = w.stop(m.Now())
			})
			return fork, err
		})
		d.v["core.fork_join_"+b.name+"_ns"] = host
		if b.kind != core.BackendSMP {
			d.v["core.fork_join_"+b.name+"_virt_us"] = virt
		}
		if b.kind != core.BackendHybrid {
			d.v["core.critical_"+b.name+"_ns"] = float64(crit.hostNS) / float64(threads*crits)
		}
		if b.kind == core.BackendNOW {
			d.v["core.reduce_now_ns"] = float64(red.hostNS) / float64(reds)
			d.v["core.reduce_now_virt_us"] = red.virt.Micros() / float64(reds)
		}
		if b.kind != core.BackendHybrid {
			n := d.n(40)
			d.v["core.new_close_"+b.name+"_us"] = d.hostOnlyErr("core", "NewProgram+Close "+b.name, n, func() (int64, error) {
				t0 := nowNS()
				for i := 0; i < n; i++ {
					if err := core.NewProgram(core.Config{Threads: threads, Backend: b.kind}).Close(); err != nil {
						return 0, err
					}
				}
				return nowNS() - t0, nil
			}) / 1e3
		}
	}
}

// --------------------------------------------------------------- ompc

// compilerIR is the program of examples/compiler: a global array shared
// through a by-reference formal, and a scalar that is shared in one
// region and private in another, which the analysis must redeclare.
func compilerIR() (*ompc.Program, map[string]ompc.Body) {
	const n = 1024
	ir := &ompc.Program{
		Globals: []*ompc.Var{
			{Name: "grid", Kind: ompc.Array, Size: 8 * n},
			{Name: "tmp", Kind: ompc.Scalar, Size: 8},
		},
		Subs: []*ompc.Subroutine{
			{
				Name:    "smooth",
				Params:  []ompc.Param{{Name: "g", Kind: ompc.Pointer, ByRef: true}},
				Regions: []*ompc.Region{{Name: "relax", Clauses: []ompc.Clause{{Var: "g", Sharing: ompc.Shared}}}},
			},
			{
				Name: "main",
				Regions: []*ompc.Region{
					{Name: "init", Clauses: []ompc.Clause{{Var: "grid", Sharing: ompc.Shared}, {Var: "tmp", Sharing: ompc.Shared}}},
					{Name: "post", Clauses: []ompc.Clause{{Var: "tmp", Sharing: ompc.Private}}},
				},
				Calls: []ompc.Call{{Callee: "smooth", Args: []string{"grid"}}},
			},
		},
	}
	bodies := map[string]ompc.Body{
		"main/init": func(*core.TC, *ompc.Env) {},
		"main/post": func(*core.TC, *ompc.Env) {},
	}
	return ir, bodies
}

func (d *drivers) ompcLayer() {
	ir, bodies := compilerIR()
	na := d.n(2000)
	d.v["ompc.analyze_us"] = d.hostOnlyErr("ompc", "Analyze", na, func() (int64, error) {
		t0 := nowNS()
		for i := 0; i < na; i++ {
			if a := ompc.Analyze(ir); len(a.Redeclared) != 1 {
				return 0, fmt.Errorf("analysis redeclared %v, want one variable", a.Redeclared)
			}
		}
		return nowNS() - t0, nil
	}) / 1e3
	nc := d.n(40)
	d.v["ompc.compile_us"] = d.hostOnlyErr("ompc", "Compile", nc, func() (int64, error) {
		t0 := nowNS()
		for i := 0; i < nc; i++ {
			c, err := ompc.Compile(ir, core.Config{Threads: 4}, bodies)
			if err != nil {
				return 0, err
			}
			if err := c.Close(); err != nil {
				return 0, err
			}
		}
		return nowNS() - t0, nil
	}) / 1e3
}

// --------------------------------------------------------------- apps

// appsLayer times each application alone: its sequential run, and its
// OpenMP run on the 8-node NOW, checked against that sequential result
// at the harness tolerance.
func (d *drivers) appsLayer() {
	scale := harness.Full
	if d.smoke {
		scale = harness.Test
	}
	for _, name := range appNames {
		a, ok := harness.FindApp(name)
		if !ok {
			d.ops++
			d.failed++
			continue
		}
		id := d.tr.begin(d.parent, "apps", name+" seq")
		t0 := nowNS()
		seq := a.RunSeq(scale)
		d.v["apps."+name+".seq_host_ms"] = sinceS(t0) * 1e3
		d.tr.end(id, d.tr.resultCounts(seq))

		id = d.tr.begin(d.parent, "apps", name+" omp p8")
		t0 = nowNS()
		par, err := a.Run(scale, harness.OMP, 8)
		d.v["apps."+name+".omp_p8_host_ms"] = sinceS(t0) * 1e3
		d.tr.end(id, d.tr.resultCounts(par))
		if err == nil {
			err = apps.CheckClose(name+"/omp", par.Checksum, seq.Checksum, 1e-8)
		}
		d.ops++
		if err != nil {
			fmt.Fprintf(logw, "FAIL driver apps %s: %v\n", name, err)
			d.failed++
			continue
		}
		d.v["apps."+name+".omp_p8_speedup"] = seq.Time.Seconds() / par.Time.Seconds()
	}
}

// ------------------------------------------------------------ harness

func (d *drivers) harnessLayer() {
	d.v["harness.micro_ms"] = d.hostOnlyErr("harness", "Micro", 1, func() (int64, error) {
		t0 := nowNS()
		_, err := harness.Micro()
		return nowNS() - t0, err
	}) / 1e6
}

// -------------------------------------------------------------- serve

// serveLayer runs one traced pass of the service workload and reads the
// scheduler's own figures off its spans and reports.
func (d *drivers) serveLayer(seed uint64) {
	w, _ := findWorkload("serve-mix")
	if d.smoke {
		w = w.smoke()
	}
	if err := w.buildOracles(true); err != nil {
		d.ops++
		d.failed++
		return
	}
	p := w.servePass(d.tr, d.parent, seed)
	d.ops += p.Ops
	d.failed += p.Failed
	if p.Failed > 0 || len(p.Reports) != 3 {
		return
	}
	spans := d.tr.snapshot()
	var jobMS []float64
	for _, s := range spans {
		if s.Parent != 0 && spans[s.Parent-1].Parent == p.Span && spans[s.Parent-1].Name == "Serve executed" {
			jobMS = append(jobMS, float64(s.EndNS-s.StartNS)/1e6)
			d.v["serve.sched_overhead_pct"] = selfShare(spans, s.Parent)
		}
	}
	if len(jobMS) > 0 { // spans exist only when tracing is on
		sort.Float64s(jobMS)
		d.v["serve.job_host_ms_p50"] = jobMS[len(jobMS)/2]
		d.v["serve.job_host_ms_p95"] = jobMS[len(jobMS)*95/100]
	}

	executed, load := p.Reports[0], p.Reports[1]
	mix, _ := serve.ParseMix(w.Mix)
	weight := map[string]int{}
	for _, c := range mix {
		weight[c.Label()] = c.SlotWeight()
	}
	// LatencyHist.Quantile returns a bucket's upper bound and histograms
	// cannot be merged from outside, so the quantiles are the worst
	// class's; the means are exact and job-weighted.
	var p50, p95, p99, wait, busy, jobs float64
	for _, c := range load.Classes {
		p50 = max(p50, float64(c.E2E.Quantile(0.50)))
		p95 = max(p95, float64(c.E2E.Quantile(0.95)))
		p99 = max(p99, float64(c.E2E.Quantile(0.99)))
		wait += float64(c.Wait.Mean()) * float64(c.Jobs)
		busy += float64(c.Service.Mean()) * float64(c.Jobs) * float64(weight[c.Label])
		jobs += float64(c.Jobs)
	}
	d.v["serve.e2e_p50_virt_ms"] = p50 / 1e6
	d.v["serve.e2e_p95_virt_ms"] = p95 / 1e6
	d.v["serve.e2e_p99_virt_ms"] = p99 / 1e6
	d.v["serve.wait_mean_virt_ms"] = wait / jobs / 1e6
	d.v["serve.util_pct"] = 100 * busy / (float64(load.Horizon) * float64(serveWidth*harness.CellUnitsPerWorker))
	var over int
	var proto int64
	for _, cp := range executed.Checkpoints {
		over = max(over, cp.Goroutines-executed.BaselineGoroutines)
		proto = max(proto, cp.PeakProtoBytes)
	}
	d.v["serve.goroutines_over_baseline_max"] = float64(over)
	d.v["serve.peak_proto_KB"] = float64(proto) / 1024
}
