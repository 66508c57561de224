package harness

import (
	"io"

	"repro/internal/apps"
	"repro/internal/sim"
)

// The >8-node scaling study. The paper stops at its 8-workstation
// testbed; with homes sharded across nodes and the tree barrier in place
// the simulated NOW runs far past that, and the interesting question
// becomes where each application's speedup stops and which protocol cost
// is binding when it does. The per-category traffic split
// (dsm.Report, embedded in apps.Result) is what lets the table
// name the culprit instead of guessing.

// ScalingProcs is the machine-size axis of the scaling study: the
// paper's full 8-workstation NOW and the powers of two beyond it.
var ScalingProcs = []int{8, 16, 32, 64, 128}

// scalingShares computes each protocol cost category's share of a run's
// interconnect bytes (in percent) and names the binding category — the
// one paying the most bytes. Runs with no categorized traffic (hardware
// shared memory, or synthetic test cells) report "-".
func scalingShares(r apps.Result) (page, sync, gc float64, binding string) {
	total := r.PageBytes + r.SyncBytes + r.GCBytes
	if total == 0 {
		return 0, 0, 0, "-"
	}
	page = 100 * float64(r.PageBytes) / float64(total)
	sync = 100 * float64(r.SyncBytes) / float64(total)
	gc = 100 * float64(r.GCBytes) / float64(total)
	binding, max := "page", r.PageBytes
	if r.SyncBytes > max {
		binding, max = "sync", r.SyncBytes
	}
	if r.GCBytes > max {
		binding = "gc"
	}
	return page, sync, gc, binding
}

// timeShare is the mean share of the run (in percent) an application
// thread spent in one slice of the time ledger — wait is the slice summed
// over threads (apps.Result.FaultWait: inside page-fault rounds; GCWait:
// inside the collector's validation waves; LockWait: inside lock acquires;
// SemaWait: inside semaphore waits and signals; LockFaultWait: inside
// fault rounds taken holding a lock; IntrTime: the node's protocol server
// charging the requests it served) — over procs × run time. Unlike the
// byte shares it is a share of TIME.
func timeShare(wait sim.Time, r apps.Result, procs int) float64 {
	if r.Time == 0 || procs == 0 {
		return 0
	}
	return 100 * wait.Seconds() / (float64(procs) * r.Time.Seconds())
}

// TableScaling prints the scaling-wall study: for every application, the
// OpenMP/NOW speedup at each machine size in procsList, the byte share
// of each protocol cost category (page service / synchronization fan-in
// / GC consensus), and which category is binding there. The wall line
// names the first size that no longer improves on the previous one —
// the machine size past which adding workstations buys nothing.
//
// A failing cell degrades in place instead of aborting the table: its
// row reports the error, wall detection restarts past it (a speedup
// comparison across an errored size would be meaningless), and every
// other application's rows still print. At 64 and 128 nodes a single
// flaky cell must not cost the whole multi-hour study.
func TableScaling(w io.Writer, s Scale, procsList []int) error {
	cells := make([]cellKey, 0, len(Apps)*(1+len(procsList)))
	for _, a := range Apps {
		cells = append(cells, cellKey{App: a.Name, Impl: Seq})
		for _, p := range procsList {
			cells = append(cells, cellKey{App: a.Name, Impl: OMP, Procs: p})
		}
	}
	got := computeCellsKeepGoing(s, cells)

	fprintf(w, "Scaling wall: OpenMP on the NOW past the paper's 8 workstations.\n")
	fprintf(w, "Per machine size: speedup over sequential, each protocol cost's\n")
	fprintf(w, "share of interconnect bytes (page service / synchronization\n")
	fprintf(w, "fan-in / GC consensus), the binding cost, then six shares of TIME,\n")
	fprintf(w, "not bytes: fault%%, gcwait%%, lock%%, sema%%, lockfault%% and intr%% — the\n")
	fprintf(w, "mean share of the run a thread spent waiting in page-fault rounds, in the\n")
	fprintf(w, "collector's validation waves (whose bytes page%% includes), in lock\n")
	fprintf(w, "acquires, in semaphore waits and signals, and in the fault rounds it took\n")
	fprintf(w, "while holding a lock (a part of fault%%), and the share its node's protocol\n")
	fprintf(w, "server took serving interrupts; the wall is the first size that no longer\n")
	fprintf(w, "improves on the previous one.\n\n")
	fprintf(w, "%-10s %6s %8s %7s %7s %7s  %-8s %6s %7s %6s %6s %10s %6s\n",
		"App", "procs", "speedup", "page%", "sync%", "gc%", "binding", "fault%", "gcwait%", "lock%", "sema%", "lockfault%", "intr%")
	for _, a := range Apps {
		seq := got[cellKey{App: a.Name, Impl: Seq}]
		if seq.Err != nil {
			// No sequential baseline, no speedups: one error row stands in
			// for the application and the table moves on.
			fprintf(w, "%-10s %6s ERROR: %v\n", a.Name, "seq", seq.Err)
			continue
		}
		wall := 0
		havePrev := false
		prev := 0.0
		for i, p := range procsList {
			name := a.Name
			if i > 0 {
				name = ""
			}
			c := got[cellKey{App: a.Name, Impl: OMP, Procs: p}]
			if c.Err != nil {
				fprintf(w, "%-10s %6d ERROR: %v\n", name, p, c.Err)
				// The next good cell has no predecessor to improve on.
				havePrev = false
				continue
			}
			sp := seq.Res.Time.Seconds() / c.Res.Time.Seconds()
			page, sync, gc, binding := scalingShares(c.Res)
			fprintf(w, "%-10s %6d %8.2f %7.1f %7.1f %7.1f  %-8s %6.1f %7.1f %6.1f %6.1f %10.1f %6.1f\n",
				name, p, sp, page, sync, gc, binding,
				timeShare(c.Res.FaultWait, c.Res, p), timeShare(c.Res.GCWait, c.Res, p),
				timeShare(c.Res.LockWait, c.Res, p), timeShare(c.Res.SemaWait, c.Res, p),
				timeShare(c.Res.LockFaultWait, c.Res, p), timeShare(c.Res.IntrTime, c.Res, p))
			if wall == 0 && havePrev && sp <= prev {
				wall = p
			}
			havePrev = true
			prev = sp
		}
		if wall > 0 {
			fprintf(w, "%-10s %6s wall at %d procs\n", "", "", wall)
		} else {
			fprintf(w, "%-10s %6s no wall up to %d procs\n", "", "", procsList[len(procsList)-1])
		}
	}
	return nil
}
