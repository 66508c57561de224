package harness

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/apps/water"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// The Section 3 ablations: the paper's Figures 1-4 are code listings that
// motivate replacing flush with semaphores and condition variables. These
// experiments run both variants and measure exactly the costs the paper
// argues about — messages sent, nodes interrupted, and time.

// AblationResult compares a flush-based construct with its proposed
// replacement.
type AblationResult struct {
	Name                           string
	Rounds                         int
	Procs                          int
	FlushTime, NewTime             sim.Time
	FlushMsgs, NewMsgs             int64
	FlushInterrupts, NewInterrupts int64
}

// AblationPipeline runs the producer/consumer pipeline of Figures 1 and 3:
// flush + busy-wait flags versus a semaphore pair, on `procs` nodes
// (the extra nodes model the uninvolved threads that flush interrupts).
func AblationPipeline(rounds, procs int) (AblationResult, error) {
	out := AblationResult{Name: "pipeline", Rounds: rounds, Procs: procs}

	// Figure 1: shared volatile flags `available` and `done`, flush after
	// every update, busy-waiting consumers.
	{
		sys := dsm.New(dsm.Config{Procs: procs})
		defer sys.Close()
		data := sys.MallocPage(8)
		avail := sys.MallocPage(8)
		done := sys.MallocPage(8)
		sys.Register("flush-pipe", func(n *dsm.Node, _ []byte) {
			switch n.ID() {
			case 0: // producer
				for i := 1; i <= rounds; i++ {
					n.WriteI64(data, int64(i))
					n.WriteI64(avail, int64(i))
					n.Flush()
					for n.ReadI64(done) != int64(i) {
						n.Poll()
					}
				}
			case 1: // consumer
				for i := 1; i <= rounds; i++ {
					for n.ReadI64(avail) != int64(i) {
						n.Poll()
					}
					_ = n.ReadI64(data)
					n.WriteI64(done, int64(i))
					n.Flush()
				}
			default: // uninvolved, but interrupted by every flush
				n.Compute(float64(rounds) * 1000)
			}
		})
		if err := sys.Run(func(n *dsm.Node) { n.RunParallel("flush-pipe", nil) }); err != nil {
			return out, err
		}
		out.FlushTime = sys.MaxClock()
		out.FlushMsgs, _ = sys.Switch().Stats().Snapshot()
		out.FlushInterrupts = sys.TotalStats().Interrupts
	}

	// Figure 3: two semaphores, no busy-waiting, no third parties.
	{
		sys := dsm.New(dsm.Config{Procs: procs})
		defer sys.Close()
		data := sys.MallocPage(8)
		const semAvail, semDone = 2, 3
		sys.Register("sema-pipe", func(n *dsm.Node, _ []byte) {
			switch n.ID() {
			case 0:
				for i := 1; i <= rounds; i++ {
					n.WriteI64(data, int64(i))
					n.SemaSignal(semAvail)
					n.SemaWait(semDone)
				}
			case 1:
				for i := 1; i <= rounds; i++ {
					n.SemaWait(semAvail)
					_ = n.ReadI64(data)
					n.SemaSignal(semDone)
				}
			default:
				n.Compute(float64(rounds) * 1000)
			}
		})
		if err := sys.Run(func(n *dsm.Node) { n.RunParallel("sema-pipe", nil) }); err != nil {
			return out, err
		}
		out.NewTime = sys.MaxClock()
		out.NewMsgs, _ = sys.Switch().Stats().Snapshot()
		out.NewInterrupts = sys.TotalStats().Interrupts
	}
	return out, nil
}

// AblationTaskQueue runs the task queue of Figures 2 and 4: critical
// sections + flush + busy-wait versus critical sections + one condition
// variable. Thread 0 produces the tasks, releasing each one only after
// every consumer is parked waiting for work — so each EnQueue is a
// guaranteed wake-from-wait event, which is precisely the situation the
// paper's Section 3.2.3 analyzes: the flush variant must push notices to
// (and interrupt) every thread and stampede all spinners at the lock,
// while cond_signal wakes exactly one waiter. The condvar variant's win
// is in messages and interrupts; its wall time carries the acknowledged
// wait registration (a correctness requirement — see dsm.CondWait),
// which puts one round trip on the lock's critical path per wake, so on
// this all-wakes-all-the-time pattern flush can clock in faster while
// interrupting five times the threads.
func AblationTaskQueue(tasks, procs int) (AblationResult, error) {
	out := AblationResult{Name: "taskqueue", Rounds: tasks, Procs: procs}
	const lockID = 5
	const condID = 1

	build := func(useCond bool) (*dsm.System, error) {
		sys := dsm.New(dsm.Config{Procs: procs})
		defer sys.Close()
		head := sys.MallocPage(8)
		tail := sys.Malloc(8)
		nwait := sys.Malloc(8)
		ring := sys.MallocPage(8 * (tasks + 8))
		cap64 := int64(tasks + 8)

		// deQueue is Figure 2 (busy-wait + flush) or Figure 4 (condvar).
		deQueue := func(n *dsm.Node) int64 {
			var task int64 = -1
			n.Acquire(lockID)
			for {
				h, t := n.ReadI64(head), n.ReadI64(tail)
				if h < t {
					task = n.ReadI64(ring + dsm.Addr(8*(h%cap64)))
					n.WriteI64(head, h+1)
					break
				}
				nw := n.ReadI64(nwait) + 1
				n.WriteI64(nwait, nw)
				if nw == int64(procs) {
					if useCond {
						n.CondBroadcast(condID, lockID)
					} else {
						n.Flush()
					}
					break
				}
				if useCond {
					n.CondWait(condID, lockID)
					if n.ReadI64(nwait) == int64(procs) {
						break
					}
					n.WriteI64(nwait, n.ReadI64(nwait)-1)
				} else {
					// Figure 2: leave the critical section and spin.
					n.Release(lockID)
					for {
						n.Poll()
						if n.ReadI64(nwait) == int64(procs) || n.ReadI64(head) < n.ReadI64(tail) {
							break
						}
					}
					n.Acquire(lockID)
					if n.ReadI64(nwait) == int64(procs) {
						break
					}
					n.WriteI64(nwait, n.ReadI64(nwait)-1)
				}
			}
			n.Release(lockID)
			return task
		}

		sys.Register("tq", func(n *dsm.Node, _ []byte) {
			if n.ID() == 0 {
				// Producer: hand out each task only once every consumer
				// is parked, so each EnQueue wakes a waiting thread.
				for t := 0; t < tasks; t++ {
					for {
						n.Acquire(lockID)
						if n.ReadI64(nwait) == int64(procs-1) {
							tl := n.ReadI64(tail)
							n.WriteI64(ring+dsm.Addr(8*(tl%cap64)), int64(t))
							n.WriteI64(tail, tl+1)
							if useCond {
								n.CondSignal(condID, lockID)
							}
							n.Release(lockID)
							if !useCond {
								n.Flush() // Figure 2: notify everyone
							}
							break
						}
						n.Release(lockID)
						n.Poll()
					}
				}
				// Then drain alongside the consumers until termination.
			}
			for deQueue(n) >= 0 {
				n.Compute(20000) // ~0.5 ms of "work" per task
			}
		})
		return sys, sys.Run(func(n *dsm.Node) {
			n.RunParallel("tq", nil)
		})
	}

	sysF, err := build(false)
	if err != nil {
		return out, err
	}
	out.FlushTime = sysF.MaxClock()
	out.FlushMsgs, _ = sysF.Switch().Stats().Snapshot()
	out.FlushInterrupts = sysF.TotalStats().Interrupts

	sysC, err := build(true)
	if err != nil {
		return out, err
	}
	out.NewTime = sysC.MaxClock()
	out.NewMsgs, _ = sysC.Switch().Stats().Snapshot()
	out.NewInterrupts = sysC.TotalStats().Interrupts
	return out, nil
}

// FlushCostRow is one row of the 2(n-1) message-cost demonstration.
type FlushCostRow struct {
	Procs     int
	FlushMsgs int64 // messages for one flush
	SemaMsgs  int64 // messages for one signal/wait pair
}

// AblationFlushCost verifies Section 3.2.3: one flush costs 2(n-1)
// messages while a semaphore operation costs a small constant.
func AblationFlushCost(procsList []int) ([]FlushCostRow, error) {
	var rows []FlushCostRow
	for _, procs := range procsList {
		sys := dsm.New(dsm.Config{Procs: procs})
		defer sys.Close()
		a := sys.MallocPage(8)
		var flushMsgs, semaMsgs int64
		sys.Register("noop", func(n *dsm.Node, _ []byte) {})
		sys.Register("sema-pair", func(n *dsm.Node, _ []byte) {
			// Producer on the last node, consumer on node 0, manager on
			// a third node where possible: the general (worst) case.
			if n.ID() == n.NumProcs()-1 {
				n.WriteI64(a, 7)
				n.SemaSignal(1)
			} else if n.ID() == 0 {
				n.SemaWait(1)
			}
		})
		err := sys.Run(func(n *dsm.Node) {
			n.RunParallel("noop", nil) // warm the team
			n.WriteI64(a, 1)
			sys.Switch().ResetStats()
			n.Flush()
			flushMsgs, _ = sys.Switch().Stats().Snapshot()
			// Measure the fork/join framing of an empty region, then
			// subtract it from the semaphore region's traffic.
			sys.Switch().ResetStats()
			n.RunParallel("noop", nil)
			framing, _ := sys.Switch().Stats().Snapshot()
			sys.Switch().ResetStats()
			n.RunParallel("sema-pair", nil)
			m, _ := sys.Switch().Stats().Snapshot()
			semaMsgs = m - framing
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, FlushCostRow{Procs: procs, FlushMsgs: flushMsgs, SemaMsgs: semaMsgs})
	}
	return rows, nil
}

// GCModes are the settings of the metadata ablation's one axis, the
// collection threshold both triggers read: "every" collects at every
// episode that retires anything (dsm.Config.GCPressure 1), "low" at
// AcquireGCPressure(procs) records, "default" at the default threshold,
// and "off" disables the collector.
var GCModes = []string{"every", "low", "default", "off"}

// AcquireGCPressure is the ablation's low threshold for a machine of
// `procs` nodes: a few rounds of per-node interval creation, so lock-only
// regions collect many times per run.
func AcquireGCPressure(procs int) int { return 4 * procs }

// gcModeConfig translates an ablation mode into the DSM configuration.
func gcModeConfig(mode string, procs int) dsm.Config {
	switch mode {
	case "every":
		return dsm.Config{Procs: procs, GCPressure: 1}
	case "low":
		return dsm.Config{Procs: procs, GCPressure: AcquireGCPressure(procs)}
	case "default":
		return dsm.Config{Procs: procs}
	case "off":
		return dsm.Config{Procs: procs, DisableGC: true}
	}
	panic(fmt.Sprintf("harness: unknown GC ablation mode %q", mode))
}

// GCAblationRow is one (workload, collector-mode) measurement: the run's
// time and its report — traffic, trigger counts, metadata retention, and
// purge outcomes.
type GCAblationRow struct {
	Workload string
	Mode     string // one of GCModes
	Procs    int
	apps.Result
}

// gcSystemRow reads one ablation row off a finished system.
func gcSystemRow(workload, mode string, sys *dsm.System) GCAblationRow {
	return GCAblationRow{workload, mode, sys.Procs(), apps.Result{Time: sys.MaxClock(), Report: sys.Report()}}
}

// AblationGCIteration measures metadata accumulation on the access
// pattern that motivates the collector: an iterative barrier application
// (each node rewrites its block of a shared array every step, with
// cross-block reads) run for `iters` steps under every collector mode.
func AblationGCIteration(iters, procs int) ([]GCAblationRow, error) {
	const words = 8192 // 16 pages of int64s
	per := words / procs
	name := fmt.Sprintf("iteration x%d", iters)
	var rows []GCAblationRow
	for _, mode := range GCModes {
		sys := dsm.New(gcModeConfig(mode, procs))
		defer sys.Close()
		base := sys.MallocPage(8 * words)
		sys.Register("gc-iter", func(n *dsm.Node, _ []byte) {
			me := n.ID()
			for r := 0; r < iters; r++ {
				for w := me * per; w < (me+1)*per; w++ {
					n.WriteI64(base+dsm.Addr(8*w), int64(r*words+w))
				}
				n.Barrier()
				nb := ((me + 1) % procs) * per
				var s int64
				for w := nb; w < nb+per; w++ {
					s += n.ReadI64(base + dsm.Addr(8*w))
				}
				n.Compute(float64(2 * per))
				n.Barrier()
			}
		})
		if err := sys.Run(func(n *dsm.Node) { n.RunParallel("gc-iter", nil) }); err != nil {
			return rows, err
		}
		rows = append(rows, gcSystemRow(name, mode, sys))
	}
	return rows, nil
}

// AblationGCWater runs the real long-iteration workload of the
// acceptance criterion — Water at 4x its usual step count on the full
// 8-node machine — under every collector mode.
func AblationGCWater(steps, procs int) ([]GCAblationRow, error) {
	name := fmt.Sprintf("water x%d steps", steps)
	p := water.Small()
	p.Steps = steps
	var rows []GCAblationRow
	for _, mode := range GCModes {
		p.DSM = gcModeConfig(mode, procs)
		res, err := water.RunTmk(p, procs)
		if err != nil {
			return rows, err
		}
		rows = append(rows, GCAblationRow{name, mode, procs, res})
	}
	return rows, nil
}

// AblationGCLockSparse runs GCLockSparse, whose one region has no barrier,
// under every collector mode: only the consensus trigger can collect
// inside it.
func AblationGCLockSparse(rounds, procs int) ([]GCAblationRow, error) {
	name := fmt.Sprintf("locksparse x%d", rounds)
	var rows []GCAblationRow
	for _, mode := range GCModes {
		sys, err := gcLockSparse(gcModeConfig(mode, procs), rounds)
		if err != nil {
			return rows, err
		}
		rows = append(rows, gcSystemRow(name, mode, sys))
	}
	return rows, nil
}

// gcLockSparseWords is the per-page word count GCLockSparse touches per
// round: diffs stay a few dozen bytes on a 4 KiB page.
const gcLockSparseWords = 4

// gcLockSparseReadPeriod is the kernel's burst-read period: every peer
// page is read every few rounds, rarely enough that collections find it
// owing several retired diffs.
const gcLockSparseReadPeriod = 6

// GCLockSparse runs the lock/semaphore kernel that motivates the acquire
// source: one parallel region with no barriers. Each node owns one page of
// a shared array (single-writer pages, so a round's diff is a few dozen
// bytes) and, per round, (a) rewrites a few words of it and (b) bumps a
// lock-protected global counter (the critical-section pattern of
// TSP/QSORT); every few rounds it (c) burst-reads all of its peers' pages
// — synchronized by a semaphore ring that hands each node its next-round
// token, bounding skew and carrying the consistency deltas (the Sweep3D
// pipeline pattern). Between bursts each peer page accumulates several
// rounds of small notices, which nothing but the consensus trigger can
// retire. It returns the finished system for counter inspection.
//
// policy is what remains of the deleted purge-policy knob: it must be ""
// or "flush" (the one rule left), anything else is an error. The frozen
// bench/layers.go calls this with "", so dropping the argument is left to
// a benchmark-archetype PR.
func GCLockSparse(procs, rounds int, pressure int, policy string) (*dsm.System, error) {
	if policy != "" && policy != "flush" {
		return nil, fmt.Errorf("harness: unknown GC policy %q (the purge-policy knob is gone; only \"flush\" remains)", policy)
	}
	return gcLockSparse(dsm.Config{Procs: procs, GCPressure: pressure}, rounds)
}

// gcLockSparse is GCLockSparse under any collector configuration.
func gcLockSparse(cfg dsm.Config, rounds int) (*dsm.System, error) {
	procs := cfg.Procs
	sys := dsm.New(cfg)
	defer sys.Close()
	arr := sys.MallocPage(procs * dsm.PageSize)
	ctr := sys.MallocPage(8)
	pageAddr := func(owner int) dsm.Addr { return arr + dsm.Addr(owner*dsm.PageSize) }
	sys.Register("locksparse", func(n *dsm.Node, _ []byte) {
		me := n.ID()
		succ := (me + 1) % procs
		for r := 0; r < rounds; r++ {
			if r > 0 {
				n.SemaWait(100 + me) // ring token: predecessor finished a round
			}
			for w := 0; w < gcLockSparseWords; w++ {
				n.WriteI64(pageAddr(me)+dsm.Addr(8*w*61), int64(r+1))
			}
			n.Acquire(1)
			n.WriteI64(ctr, n.ReadI64(ctr)+1)
			n.Release(1)
			// Burst-read every peer page once per period: the pages owe
			// the accumulated notices of the rounds since the last burst.
			if r%gcLockSparseReadPeriod == gcLockSparseReadPeriod-1 {
				var s int64
				for peer := 0; peer < procs; peer++ {
					if peer == me {
						continue
					}
					for w := 0; w < gcLockSparseWords; w++ {
						s += n.ReadI64(pageAddr(peer) + dsm.Addr(8*w*61))
					}
				}
				n.Compute(float64(8 * gcLockSparseWords * (procs - 1)))
				_ = s
			}
			n.SemaSignal(100 + succ)
		}
	})
	err := sys.Run(func(n *dsm.Node) {
		n.RunParallel("locksparse", nil)
		if got := n.ReadI64(ctr); got != int64(rounds*procs) {
			panic(fmt.Sprintf("locksparse: counter = %d, want %d", got, rounds*procs))
		}
		for o := 0; o < procs; o++ {
			for w := 0; w < gcLockSparseWords; w++ {
				if got := n.ReadI64(pageAddr(o) + dsm.Addr(8*w*61)); got != int64(rounds) {
					panic(fmt.Sprintf("locksparse: page %d word %d = %d, want %d", o, w, got, rounds))
				}
			}
		}
	})
	return sys, err
}

// PrintAblationGC runs and formats the metadata-accumulation ablation:
// every workload under every collection threshold.
func PrintAblationGC(w io.Writer) error {
	var rows []GCAblationRow
	for _, run := range []func() ([]GCAblationRow, error){
		func() ([]GCAblationRow, error) { return AblationGCIteration(32, 8) },
		func() ([]GCAblationRow, error) { return AblationGCWater(8, 8) },
		func() ([]GCAblationRow, error) { return AblationGCLockSparse(64, 8) },
	} {
		r, err := run()
		if err != nil {
			return err
		}
		rows = append(rows, r...)
	}
	fprintf(w, "GC ablation (8 processors): protocol-metadata cost with the collector\n")
	fprintf(w, "announcing a floor once it retires >= 1 record (every), >= %d (low),\n", AcquireGCPressure(8))
	fprintf(w, ">= %d (default), and disabled (off). epochs are episode-triggered,\n", dsm.Config{Procs: 8}.GCThreshold())
	fprintf(w, "acqEp consensus-triggered; locksparse has no barrier, so only the\n")
	fprintf(w, "consensus collects inside it\n\n")
	fprintf(w, "%-18s %-7s %12s %9s %8s %8s %6s %5s %8s %9s %7s %6s %7s\n",
		"workload", "GC", "time", "messages", "KB", "episodes", "epochs", "acqEp",
		"retired", "peakchain", "peakKB", "valid", "flushed")
	for _, r := range rows {
		fprintf(w, "%-18s %-7s %12s %9d %8d %8d %6d %5d %8d %9d %7d %6d %7d\n",
			r.Workload, r.Mode, r.Time, r.Messages, r.Bytes/1024, r.GCEpisodes, r.GCEpochs, r.GCAcqEpochs,
			r.IntervalsRetired, r.PeakIntervalChain, r.PeakProtoBytes/1024, r.GCPagesValidated, r.GCPagesFlushed)
	}
	return nil
}

// PrintAblations runs and formats all three ablations.
func PrintAblations(w io.Writer) error {
	pipe, err := AblationPipeline(50, 8)
	if err != nil {
		return err
	}
	tq, err := AblationTaskQueue(64, 8)
	if err != nil {
		return err
	}
	fprintf(w, "Section 3 ablations (8 processors)\n\n")
	fprintf(w, "%-22s %12s %10s %12s\n", "variant", "time", "messages", "interrupts")
	fprintf(w, "%-22s %12s %10d %12d\n", "pipeline: flush", pipe.FlushTime, pipe.FlushMsgs, pipe.FlushInterrupts)
	fprintf(w, "%-22s %12s %10d %12d\n", "pipeline: semaphores", pipe.NewTime, pipe.NewMsgs, pipe.NewInterrupts)
	fprintf(w, "%-22s %12s %10d %12d\n", "taskqueue: flush", tq.FlushTime, tq.FlushMsgs, tq.FlushInterrupts)
	fprintf(w, "%-22s %12s %10d %12d\n", "taskqueue: condvars", tq.NewTime, tq.NewMsgs, tq.NewInterrupts)

	rows, err := AblationFlushCost([]int{2, 4, 8})
	if err != nil {
		return err
	}
	fprintf(w, "\nflush message cost vs semaphores (Section 3.2.3: flush = 2(n-1))\n\n")
	fprintf(w, "%6s %12s %12s %12s\n", "procs", "flush msgs", "2(n-1)", "sema msgs")
	for _, r := range rows {
		fprintf(w, "%6d %12d %12d %12d\n", r.Procs, r.FlushMsgs, 2*(r.Procs-1), r.SemaMsgs)
	}
	return nil
}
