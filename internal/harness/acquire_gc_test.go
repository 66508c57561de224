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

// setAcquireGC sets a run's collector to the forced-low trigger, or off.
func setAcquireGC(c *dsm.Config, collect bool) {
	c.GCPressure = acquireGCPressureForTests
	c.DisableGC = !collect
}

// TestAcquireGCBoundsQSORTChain is the acceptance criterion on the
// condvar application: QSORT's retained interval chain must not grow
// with the work size under the acquire collector (it is bounded by the
// trigger plus the hook's backpressure slack), while without it the
// chain tracks the task count.
func TestAcquireGCBoundsQSORTChain(t *testing.T) {
	run := func(mult int, collect bool) int64 {
		p := qsort.Small()
		p.N *= mult
		setAcquireGC(&p.DSM, collect)
		res, err := qsort.RunTmk(p, 8)
		if err != nil {
			t.Fatalf("qsort x%d: %v", mult, err)
		}
		if collect && res.GCAcqEpochs == 0 {
			t.Errorf("qsort x%d: no acquire epochs despite pressure %d", mult, acquireGCPressureForTests)
		}
		return res.PeakIntervalChain
	}
	small, big := run(1, true), run(4, true)
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
	off := run(4, false)
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

	sw := func(mult int, collect bool) int64 {
		p := sweep3d.Small()
		p.NX *= mult // more pipeline stage units per node -> more intervals
		setAcquireGC(&p.DSM, collect)
		res, err := sweep3d.RunTmk(p, 8)
		if err != nil {
			t.Fatalf("sweep3d NXx%d: %v", mult, err)
		}
		return res.PeakIntervalChain
	}
	s4, s8 := sw(4, true), sw(8, true)
	if s4 > limit || s8 > limit {
		t.Errorf("sweep3d chains above the backpressure bound %d: x4=%d x8=%d", limit, s4, s8)
	}
	sOff := sw(8, false)
	if sOff <= s8 {
		t.Errorf("sweep3d without acquire GC (chain %d) not above with (%d)", sOff, s8)
	}

	ts := func(cities int, collect bool) int64 {
		p := tsp.Small()
		p.NCities = cities // 11 -> 12 roughly quadruples the search
		setAcquireGC(&p.DSM, collect)
		res, err := tsp.RunTmk(p, 8)
		if err != nil {
			t.Fatalf("tsp %d cities: %v", cities, err)
		}
		return res.PeakIntervalChain
	}
	t11, t12 := ts(11, true), ts(12, true)
	if t12 > limit {
		t.Errorf("tsp chain above the backpressure bound: 11 cities=%d, 12 cities=%d (limit %d)", t11, t12, limit)
	}
	// TSP's search order follows host scheduling, so one off/on pair can
	// land within a few records of each other under load (141 vs 147 was
	// seen with other packages' tests running). The bound above holds on
	// every run; the gap must show within up to four paired runs, each of
	// whose collected runs must keep the bound too.
	const pairs = 4
	var seen []string
	for i := 0; i < pairs; i++ {
		on := t12
		if i > 0 {
			if on = ts(12, true); on > limit {
				t.Errorf("tsp chain %d above the backpressure bound %d (pair %d)", on, limit, i+1)
			}
		}
		off := ts(12, false)
		if off > on {
			return
		}
		seen = append(seen, fmt.Sprintf("off %d vs on %d", off, on))
	}
	t.Errorf("tsp without acquire GC never above with it in %d paired runs: %v", pairs, seen)
}

// TestEquivalenceWithAcquireGC reruns the cross-implementation
// equivalence contract with the acquire collector forced on at low
// pressure, across all three backends (NOW, SMP — where the knobs are
// no-ops — and hybrid at one and two islands): every implementation must
// still reproduce the sequential checksum. The knobs travel explicitly with
// every run, so the subtests run in parallel with each other and with the
// rest of the suite.
func TestEquivalenceWithAcquireGC(t *testing.T) {
	knobs := GCKnobs{Pressure: 8}
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
