package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dsm"
	"repro/internal/sim"
)

func TestTable1TestScale(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, Test); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"Sweep3D", "3D-FFT", "Water", "TSP", "QSORT", "LU", "Barnes"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "semaphore") || !strings.Contains(out, "condition variables") {
		t.Errorf("Table 1 missing directive columns:\n%s", out)
	}
}

func TestFigure6TestScale(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure6(&buf, Test, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "OpenMP") {
		t.Errorf("missing header:\n%s", buf.String())
	}
}

func TestTable2TestScale(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, Test, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Messages") {
		t.Errorf("missing header:\n%s", buf.String())
	}
}

func TestVerifiedCatchesNothingOnGoodRuns(t *testing.T) {
	for _, a := range Apps {
		if _, err := Verified(a, Test, OMP, 2); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestMPIResultCarriesOnlyTraffic: every app's MPI run reports its
// messages and bytes and nothing else of the run report — no DSM cost
// categories, ledger, GC or metadata counters.
func TestMPIResultCarriesOnlyTraffic(t *testing.T) {
	for _, a := range Apps {
		r, err := Verified(a, Test, MPI, 2)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if r.Messages == 0 || r.Report != (dsm.Report{Messages: r.Messages, Bytes: r.Bytes}) {
			t.Errorf("%s/mpi report %+v, want only Messages and Bytes", a.Name, r.Report)
		}
	}
}

func TestMicroResultsInPaperBands(t *testing.T) {
	m, err := Micro()
	if err != nil {
		t.Fatal(err)
	}
	// The Section 6 calibration targets (generous bands).
	us := func(t2 interface{ Micros() float64 }) float64 { return t2.Micros() }
	if got := us(m.UDPRoundTrip); got < 100 || got > 160 {
		t.Errorf("UDP RTT %.1fµs, want ~126µs", got)
	}
	if got := us(m.LockLow); got < 100 || got > 700 {
		t.Errorf("lock low %.1fµs, want 170-700µs band", got)
	}
	if got := us(m.LockHigh); got <= us(m.LockLow) {
		t.Errorf("lock high (%.1fµs) should exceed lock low (%.1fµs)", got, us(m.LockLow))
	}
	if got := us(m.Barrier8); got < 200 || got > 2000 {
		t.Errorf("8-proc barrier %.1fµs, want hundreds of µs", got)
	}
	if got := us(m.DiffLow); got < 100 || got > 900 {
		t.Errorf("diff low %.1fµs, want in 313-827µs band-ish", got)
	}
	if m.DiffHigh <= m.DiffLow {
		t.Errorf("full-page diff (%v) should cost more than 1-word diff (%v)", m.DiffHigh, m.DiffLow)
	}
	if got := us(m.TCPRoundTrip); got < 150 || got > 280 {
		t.Errorf("TCP RTT %.1fµs, want ~200µs", got)
	}
	if m.TCPBandwidth < 5 || m.TCPBandwidth > 12 {
		t.Errorf("TCP bandwidth %.1f MB/s, want ~8.6", m.TCPBandwidth)
	}
	// One-page faults are deterministic to the nanosecond: one request and
	// one reply of the fetch exchange, their sizes fixed by the codec
	// (dsm.TestOnePageFaultCosts derives the same three from the encodings).
	// The cold page holds one word, so it crosses as its runs against zeros.
	if m.PageFaultCold != 207480 || m.DiffLow != 283920 || m.DiffHigh != 693210 {
		t.Errorf("one-page fault costs moved: cold %d ns, diff low %d, diff high %d; want 207480, 283920, 693210",
			m.PageFaultCold, m.DiffLow, m.DiffHigh)
	}
	// A page nobody wrote is zeros wherever it is first touched: the fault
	// entry and nothing else — never free, never a message.
	if want := sim.DefaultPlatform().FaultOverhead; m.FirstTouch != want {
		t.Errorf("first touch of an untouched page took %d ns, want the fault overhead %d", m.FirstTouch, want)
	}
	// An 8-page span is one round: cheaper than eight faults by the
	// per-message fixed costs, but dearer than one, whose page it copies
	// and installs eight times. (Its one-word pages cross as runs, so the
	// round no longer costs a whole page's bytes on the wire each.)
	if m.SpanFetch8 >= 8*m.PageFaultCold || m.SpanFetch8 <= m.PageFaultCold {
		t.Errorf("8-page span fetch %v, want between one cold fault %v and eight %v",
			m.SpanFetch8, m.PageFaultCold, 8*m.PageFaultCold)
	}
}

// TestFaultWaitLedger checks the fault-wait slice of the time ledger on
// real cells: a paging run spends a positive share of its threads' time
// inside fault rounds — never more than all of it — and fetches at least
// one page a round; hardware shared memory never faults. Beside it the
// collector's slice, on Water (two 3D-FFT processors home every page they
// write): threads that collect at every episode spend a positive share —
// never, with the faults, more than all — of their time in validation
// waves whose traffic is part of page service; with the collector off,
// none. The lock-wait slice is bounded the same way, and hardware shared
// memory, which keeps no ledger, books none. Two processors:
// the test-scale transpose then stages four-page blocks (at eight a block
// is under a page, and with no flushed copies around it nothing else in
// the run reads two stale pages in one call).
func TestFaultWaitLedger(t *testing.T) {
	const procs = 2
	a, _ := FindApp("3D-FFT")
	for _, impl := range []Impl{OMP, Tmk, OMPHybrid} {
		res, err := Verified(a, Test, impl, procs)
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultWait <= 0 || res.FaultWait > procs*res.Time {
			t.Errorf("%s: fault wait %v outside (0, %d × %v]", impl, res.FaultWait, procs, res.Time)
		}
		if res.FaultRounds <= 0 || res.FaultPages < res.FaultRounds {
			t.Errorf("%s: %d fault rounds fetched %d pages", impl, res.FaultRounds, res.FaultPages)
		}
		if res.LockWait < 0 || res.LockWait > procs*res.Time {
			t.Errorf("%s: lock wait %v outside [0, %d × %v]", impl, res.LockWait, procs, res.Time)
		}
		if impl != OMPHybrid && res.FaultPages == res.FaultRounds {
			t.Errorf("%s: %d rounds for %d pages: the transposes' multi-page reads took no span round",
				impl, res.FaultRounds, res.FaultPages)
		}
	}
	res, err := Verified(a, Test, OMPSMP, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultWait != 0 || res.FaultRounds != 0 || res.FaultPages != 0 || res.GCWait != 0 || res.LockWait != 0 {
		t.Errorf("omp-smp: ledger %v fault / %d rounds / %d pages / %v gc / %v lock, want zero",
			res.FaultWait, res.FaultRounds, res.FaultPages, res.GCWait, res.LockWait)
	}
	w, _ := FindApp("Water")
	res, err = VerifiedGC(w, Test, OMP, procs, GCKnobs{Pressure: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.GCWait <= 0 || res.GCWait+res.FaultWait > procs*res.Time {
		t.Errorf("every episode collecting: gc wait %v + fault wait %v outside (0, %d × %v]", res.GCWait, res.FaultWait, procs, res.Time)
	}
	if res.GCWaveMsgs <= 0 || res.GCWaveMsgs > res.PageMsgs || res.GCWaveBytes <= 0 || res.GCWaveBytes > res.PageBytes {
		t.Errorf("every episode collecting: wave traffic %d msgs / %d B, page service %d / %d",
			res.GCWaveMsgs, res.GCWaveBytes, res.PageMsgs, res.PageBytes)
	}
	res, err = VerifiedGC(w, Test, OMP, procs, GCKnobs{Disable: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.GCWait != 0 || res.GCWaveMsgs != 0 || res.GCWaveBytes != 0 {
		t.Errorf("collector off: gc ledger %v / %d msgs / %d B, want zero", res.GCWait, res.GCWaveMsgs, res.GCWaveBytes)
	}
}

// TestLockFaultWaitLedger bounds the lock-fault slice on the task-queue
// application, whose critical sections are where it lives: on every DSM
// backend the time and rounds spent faulting while holding a lock are a
// part of the fault ledger, and hardware shared memory books none.
func TestLockFaultWaitLedger(t *testing.T) {
	const procs = 4
	a, _ := FindApp("QSORT")
	for _, impl := range []Impl{OMP, Tmk, OMPHybrid, OMPSMP} {
		res, err := Verified(a, Test, impl, procs)
		if err != nil {
			t.Fatal(err)
		}
		if res.LockFaultWait < 0 || res.LockFaultWait > res.FaultWait || res.LockFaultRounds < 0 || res.LockFaultRounds > res.FaultRounds {
			t.Errorf("%s: lock-fault slice %v / %d rounds outside the fault ledger's %v / %d",
				impl, res.LockFaultWait, res.LockFaultRounds, res.FaultWait, res.FaultRounds)
		}
		if impl == OMPSMP && (res.LockFaultWait != 0 || res.LockFaultRounds != 0) {
			t.Errorf("omp-smp: lock-fault slice %v / %d rounds, want zero", res.LockFaultWait, res.LockFaultRounds)
		}
	}
}

// TestSemaWaitLedger checks the semaphore slice on the pipelined
// application: Sweep3D's threads on the NOW spend a positive share of the
// run — never more than all of it — inside semaphore waits and signals,
// so its -scaling sema% reads above zero, while hardware shared memory,
// which keeps no ledger, books none.
func TestSemaWaitLedger(t *testing.T) {
	const procs = 4
	a, _ := FindApp("Sweep3D")
	for _, impl := range []Impl{OMP, Tmk, OMPSMP} {
		res, err := Verified(a, Test, impl, procs)
		if err != nil {
			t.Fatal(err)
		}
		share := timeShare(res.SemaWait, res, procs)
		if impl == OMPSMP {
			if res.SemaWait != 0 {
				t.Errorf("omp-smp: sema wait %v, want zero", res.SemaWait)
			}
			continue
		}
		if res.SemaWait <= 0 || share <= 0 || share > 100 {
			t.Errorf("%s: sema wait %v (sema%% %.2f) outside (0, %d × %v]", impl, res.SemaWait, share, procs, res.Time)
		}
	}
}

// TestIntrTimeLedger checks the interrupt-service slice on the application
// whose pivot row every node fetches from one owner: LU's nodes on the NOW
// serve fetch requests, so its -scaling intr% reads above zero, each
// interrupt booking one Platform.Interrupt, while hardware shared memory
// books none.
func TestIntrTimeLedger(t *testing.T) {
	const procs = 4
	a, _ := FindApp("LU")
	for _, impl := range []Impl{OMP, OMPSMP} {
		res, err := Verified(a, Test, impl, procs)
		if err != nil {
			t.Fatal(err)
		}
		if impl == OMPSMP {
			if res.IntrTime != 0 {
				t.Errorf("omp-smp: interrupt time %v, want zero", res.IntrTime)
			}
			continue
		}
		share := timeShare(res.IntrTime, res, procs)
		if res.IntrTime <= 0 || res.IntrTime%sim.DefaultPlatform().Interrupt != 0 || share > 100 {
			t.Errorf("%s: interrupt time %v (intr%% %.2f): want a positive multiple of one interrupt, at most the run", impl, res.IntrTime, share)
		}
	}
}

func TestAblationPipelineFavorsSemaphores(t *testing.T) {
	res, err := AblationPipeline(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewMsgs >= res.FlushMsgs {
		t.Errorf("semaphores sent %d messages, flush %d — semaphores must send fewer", res.NewMsgs, res.FlushMsgs)
	}
	if res.NewTime >= res.FlushTime {
		t.Errorf("semaphores took %v, flush %v — semaphores must be faster", res.NewTime, res.FlushTime)
	}
	if res.NewInterrupts >= res.FlushInterrupts {
		t.Errorf("semaphores interrupted %d times, flush %d", res.NewInterrupts, res.FlushInterrupts)
	}
}

func TestAblationTaskQueueFavorsCondvars(t *testing.T) {
	res, err := AblationTaskQueue(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewMsgs >= res.FlushMsgs {
		t.Errorf("condvars sent %d messages, flush %d", res.NewMsgs, res.FlushMsgs)
	}
}

func TestFlushCostIsTwoNMinusOne(t *testing.T) {
	rows, err := AblationFlushCost([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FlushMsgs != int64(2*(r.Procs-1)) {
			t.Errorf("procs=%d: flush cost %d, want %d", r.Procs, r.FlushMsgs, 2*(r.Procs-1))
		}
		// A signal/wait pair costs two 2-message exchanges plus at most
		// one forwarded hop — a small constant, independent of n.
		if r.SemaMsgs > 8 {
			t.Errorf("procs=%d: semaphore pair cost %d messages, want small constant", r.Procs, r.SemaMsgs)
		}
	}
	// The semaphore cost must not grow with the processor count while
	// flush grows linearly: that is the paper's Section 3.2.3 claim.
	if last := rows[len(rows)-1]; last.SemaMsgs > rows[0].SemaMsgs+4 {
		t.Errorf("semaphore cost grew with procs: %v", rows)
	}
}

func TestPrintAblationsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 8-proc ablations")
	}
	var buf bytes.Buffer
	if err := PrintAblations(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2(n-1)") {
		t.Errorf("missing flush-cost section:\n%s", buf.String())
	}
}
