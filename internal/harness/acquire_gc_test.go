package harness

import (
	"fmt"
	"testing"

	"repro/internal/apps/qsort"
	"repro/internal/apps/sweep3d"
	"repro/internal/apps/tsp"
	"repro/internal/dsm"
)

// acquireGCPressureForTests is the forced-low trigger the suite pins the
// lock/semaphore applications at: low enough that test-scale runs collect
// many times, high enough that every epoch retires a meaningful batch.
const acquireGCPressureForTests = 32

// TestAcquireGCBoundsQSORTChain is the acceptance criterion on the
// condvar application: QSORT's retained interval chain must not grow
// with the work size under the acquire collector (it is bounded by the
// trigger plus the hook's backpressure slack), while without it the
// chain tracks the task count.
func TestAcquireGCBoundsQSORTChain(t *testing.T) {
	run := func(mult, pressure int) int64 {
		p := qsort.Small()
		p.N *= mult
		p.DSM.GCPressure = pressure
		res, err := qsort.RunTmk(p, 8)
		if err != nil {
			t.Fatalf("qsort x%d: %v", mult, err)
		}
		if pressure > 0 && res.GCAcqEpochs == 0 {
			t.Errorf("qsort x%d: no acquire epochs despite pressure %d", mult, pressure)
		}
		return res.PeakIntervalChain
	}
	small, big := run(1, acquireGCPressureForTests), run(4, acquireGCPressureForTests)
	// The backpressure bound has slack: a thread's chain can drift past
	// 4x pressure between release-side spin points (acquire-side hooks
	// never stall — see gcSyncHook), and how far it drifts depends on
	// real goroutine scheduling: under full-suite load the spinning
	// thread is descheduled for longer stretches and the peak rides
	// higher than it ever does in an isolated run. 16x keeps the bound
	// meaningful (the GC-off chain is an order of magnitude above it)
	// without tripping on scheduler noise.
	limit := int64(16 * acquireGCPressureForTests)
	if small > limit || big > limit {
		t.Errorf("qsort chains above the backpressure bound %d: x1=%d x4=%d", limit, small, big)
	}
	// Same scheduling sensitivity: x1 and x4 each drift independently
	// (isolated runs land anywhere in 20-110), so the no-growth check
	// needs several trigger widths of slack — the real no-growth claim is
	// the limit check above holding at both work sizes.
	if big > small+int64(4*acquireGCPressureForTests) {
		t.Errorf("qsort chain grew with work size under acquire GC: x1=%d x4=%d", small, big)
	}
	// Discrimination: without the collector the x4 chain tracks the task
	// count and sits at 320+ across every load level measured, while the
	// collected x4 peak stays in the low hundreds even under full-suite
	// load. Both a direct comparison and a fixed floor at twice the
	// nominal backpressure bound (4x pressure) hold with wide margins;
	// ratio checks (off vs 2x the collected peak, or x4-off vs x1-off)
	// do not — both denominators drift with scheduling load.
	off := run(4, -1)
	if off <= big {
		t.Errorf("qsort x4 without acquire GC (chain %d) not above with (%d)", off, big)
	}
	if off <= int64(8*acquireGCPressureForTests) {
		t.Errorf("qsort x4 without acquire GC (chain %d) within the backpressure scale %d: collector off had no effect to discriminate", off, 8*acquireGCPressureForTests)
	}
}

// TestAcquireGCBoundsSweepAndTSPChains extends the bound to the
// semaphore-pipeline and critical-section applications at 4-8x their
// usual work scale.
func TestAcquireGCBoundsSweepAndTSPChains(t *testing.T) {
	limit := int64(8 * acquireGCPressureForTests) // 4x pressure + inter-spin drift

	sw := func(mult, pressure int) int64 {
		p := sweep3d.Small()
		p.NX *= mult // more pipeline stage units per node -> more intervals
		p.DSM.GCPressure = pressure
		res, err := sweep3d.RunTmk(p, 8)
		if err != nil {
			t.Fatalf("sweep3d NXx%d: %v", mult, err)
		}
		return res.PeakIntervalChain
	}
	s4, s8 := sw(4, acquireGCPressureForTests), sw(8, acquireGCPressureForTests)
	if s4 > limit || s8 > limit {
		t.Errorf("sweep3d chains above the backpressure bound %d: x4=%d x8=%d", limit, s4, s8)
	}
	sOff := sw(8, -1)
	if sOff <= s8 {
		t.Errorf("sweep3d without acquire GC (chain %d) not above with (%d)", sOff, s8)
	}

	ts := func(cities, pressure int) int64 {
		p := tsp.Small()
		p.NCities = cities // 11 -> 12 roughly quadruples the search
		p.DSM.GCPressure = pressure
		res, err := tsp.RunTmk(p, 8)
		if err != nil {
			t.Fatalf("tsp %d cities: %v", cities, err)
		}
		return res.PeakIntervalChain
	}
	t11, t12 := ts(11, acquireGCPressureForTests), ts(12, acquireGCPressureForTests)
	if t12 > limit {
		t.Errorf("tsp chain above the backpressure bound: 11 cities=%d, 12 cities=%d (limit %d)", t11, t12, limit)
	}
	tOff := ts(12, -1)
	if tOff <= t12 {
		t.Errorf("tsp without acquire GC (chain %d) not above with (%d)", tOff, t12)
	}
}

// TestAcquireGCPolicyRefetchPin is the flushed-vs-validated pin on the
// lock/semaphore kernel: under the flush policy every collection
// discards copies the nodes are about to burst-read again, so the run
// pays hundreds of extra whole-page fetches (and their bytes) that the
// validate-hot policy replaces with small diff fetches. On a quiet
// machine the gap is far above noise (≈ 280 page fetches and ≈ 1 MB on
// this configuration), but the collection points ride on real goroutine
// scheduling, so under full-suite load a single flush/validate-hot pair
// can land its collections at different releases and compress — or even
// invert — the gap. The deflake discipline is therefore the same as the
// repo's drain tests: the effect must be OBSERVABLE within a bounded
// number of paired runs, with no single-sample margin assertion. The
// engagement check (both policies actually purged) stays strict on
// every attempt; a genuine policy regression fails all attempts.
func TestAcquireGCPolicyRefetchPin(t *testing.T) {
	const procs, rounds = 8, 64
	run := func(policy string) (pageFetches, bytes, validated, flushed int64) {
		sys, err := GCLockSparse(procs, rounds, AcquireGCPressure(procs), policy)
		if err != nil {
			t.Fatalf("locksparse %s: %v", policy, err)
		}
		st := sys.TotalStats()
		_, b := sys.Switch().Stats().Snapshot()
		return st.PageFetches, b, st.GCPagesValidated, st.GCPagesFlushed
	}
	const attempts = 4
	var last string
	for i := 0; i < attempts; i++ {
		fPF, fB, fV, fF := run("flush")
		vPF, vB, vV, vF := run("validate-hot")
		if fF == 0 || vV == 0 {
			t.Fatalf("policies did not engage: flush flushed %d, validate-hot validated %d", fF, vV)
		}
		switch {
		case vV <= fV:
			last = fmt.Sprintf("validate-hot validated %d pages, not above flush policy's %d", vV, fV)
		case vF >= fF:
			last = fmt.Sprintf("validate-hot flushed %d pages, not below flush policy's %d", vF, fF)
		case fPF < vPF+100:
			last = fmt.Sprintf("flush policy page fetches (%d) not well above validate-hot (%d)", fPF, vPF)
		case fB <= vB:
			last = fmt.Sprintf("flush policy bytes (%d) not above validate-hot (%d)", fB, vB)
		default:
			return // the full-margin gap showed; the pin holds
		}
	}
	t.Errorf("policy gap never showed in %d paired runs; last: %s", attempts, last)
}

// TestAblationGCPolicyGrid smokes the policy x trigger artifact and pins
// its two findings: the episode trigger alone cannot collect inside the
// lock-only region (nothing retired, chain grows with the run), and on
// the sparse-diff kernel the validate-hot purge moves fewer bytes than
// the flush purge (the acceptance criterion's "at least one app where
// validate-hot beats flush").
func TestAblationGCPolicyGrid(t *testing.T) {
	// The structural pins (grid shape, episode-trigger inertness, chain
	// bound) hold on every run. The two policy-direction comparisons ride
	// on scheduling-dependent collection points, so — like the refetch
	// pin above — they must show within a bounded number of grid runs
	// rather than on every single sample under full-suite load.
	const attempts = 4
	var last string
	for i := 0; i < attempts; i++ {
		rows, err := AblationGCPolicy(64, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(GCTriggers) * len(GCPolicies) * 2; len(rows) != want {
			t.Fatalf("grid produced %d rows, want %d", len(rows), want)
		}
		byKey := map[string]GCPolicyRow{}
		for _, r := range rows {
			if r.Time == 0 {
				t.Errorf("%s/%s/%s: missing time", r.Workload, r.Trigger, r.Policy)
			}
			byKey[fmt.Sprintf("%s/%s/%s", r.Workload, r.Trigger, r.Policy)] = r
		}
		lock := func(trigger, policy string) GCPolicyRow {
			return byKey[fmt.Sprintf("locksparse x64/%s/%s", trigger, policy)]
		}
		if r := lock("episode", "flush"); r.Retired != 0 || r.AcqEpochs != 0 {
			t.Errorf("episode trigger collected inside a lock-only region: retired=%d acq=%d", r.Retired, r.AcqEpochs)
		}
		acqFlush, acqHot := lock("acquire", "flush"), lock("acquire", "validate-hot")
		if acqFlush.Retired == 0 || acqHot.Retired == 0 {
			t.Errorf("acquire trigger retired nothing: flush=%d validate-hot=%d", acqFlush.Retired, acqHot.Retired)
		}
		if acqFlush.PeakChain >= lock("episode", "flush").PeakChain {
			t.Errorf("acquire trigger did not bound the chain: %d vs episode %d",
				acqFlush.PeakChain, lock("episode", "flush").PeakChain)
		}
		switch {
		case acqHot.Bytes >= acqFlush.Bytes:
			last = fmt.Sprintf("validate-hot bytes (%d) not below flush policy bytes (%d)", acqHot.Bytes, acqFlush.Bytes)
		case acqHot.Validated <= acqFlush.Validated:
			last = fmt.Sprintf("validate-hot validated %d, not above flush policy's %d", acqHot.Validated, acqFlush.Validated)
		default:
			return // both policy directions showed
		}
	}
	t.Errorf("policy direction never showed in %d grid runs; last: %s", attempts, last)
}

// TestEquivalenceWithAcquireGC reruns the cross-implementation
// equivalence contract with the acquire collector forced on at low
// pressure under the validate-hot policy, across all three backends
// (NOW, SMP — where the knobs are no-ops — and hybrid at one and two
// islands): every implementation must still reproduce the sequential
// checksum. The knobs travel explicitly with every run, so the subtests
// run in parallel with each other and with the rest of the suite.
func TestEquivalenceWithAcquireGC(t *testing.T) {
	knobs := GCKnobs{Pressure: 8, Policy: dsm.GCPolicyValidateHot}
	impls := []Impl{OMP, OMPSMP, HybridImpl(1), HybridImpl(2), Tmk}
	for _, a := range Apps {
		for _, impl := range impls {
			for _, procs := range []int{2, 8} {
				a, impl, procs := a, impl, procs
				t.Run(fmt.Sprintf("%s/%s/p%d", a.Name, impl, procs), func(t *testing.T) {
					t.Parallel()
					if _, err := VerifiedGC(a, Test, impl, procs, knobs); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}
