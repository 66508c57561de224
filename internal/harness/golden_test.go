package harness

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// TestTable1GoldenRendering re-renders Table 1 independently from the
// same memoized sequential results and requires the harness output to
// match byte for byte: header text, column layout, and row order are all
// pinned, so the concurrent refactor (or any future one) cannot reorder
// or garble the printed artifact.
func TestTable1GoldenRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, Test); err != nil {
		t.Fatal(err)
	}

	var want strings.Builder
	want.WriteString("Table 1: applications, input data sets, sequential execution time,\n")
	want.WriteString("and parallel and synchronization directives in the OpenMP versions\n\n")
	fmt.Fprintf(&want, "%-10s %-32s %12s  %-20s %-28s\n", "App", "Data size", "Seq time", "Parallel", "Synchronization")
	for _, a := range Apps {
		res := SeqCached(a, Test)
		fmt.Fprintf(&want, "%-10s %-32s %12s  %-20s %-28s\n", a.Name, "(test scale)", res.Time.String(), a.Parallel, a.Synch)
	}
	if got := buf.String(); got != want.String() {
		t.Errorf("Table 1 rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, want.String())
	}
	for _, name := range []string{"LU", "Barnes"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("Table 1 missing new app %s", name)
		}
	}
}

// fakeCell returns a deterministic, cell-distinct result so output
// comparisons across pool widths are exact. It replaces runCell for the
// ordering tests below (real cells are nondeterministic in their low
// digits: virtual time depends on lock-grant interleaving).
func fakeCell(a App, s Scale, impl Impl, procs int) (apps.Result, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%s/%d", a.Name, s, impl, procs)
	v := h.Sum64()
	return apps.Result{
		Checksum: float64(v % 1000),
		Time:     sim.Time(1 + v%997_000_000),
		Report:   dsm.Report{Messages: int64(v % 10_000), Bytes: int64(v % 1_000_000)},
	}, nil
}

// TestConcurrentGridOutputByteIdentical renders every artifact with a
// single-worker (sequential) pool and with a wide pool, on deterministic
// fake cells, and requires byte-identical output: the concurrent grid
// must not reorder, interleave, or drop rows.
func TestConcurrentGridOutputByteIdentical(t *testing.T) {
	origWorkers := Workers
	restore := swapRunCell(fakeCell)
	defer func() { restore(); Workers = origWorkers }()

	render := func(workers int) string {
		Workers = workers
		var buf bytes.Buffer
		if err := Table1(&buf, Test); err != nil {
			t.Fatal(err)
		}
		if err := Figure6(&buf, Test, 8); err != nil {
			t.Fatal(err)
		}
		if err := Table2(&buf, Test, 8); err != nil {
			t.Fatal(err)
		}
		if err := TableGC(&buf, Test, 8); err != nil {
			t.Fatal(err)
		}
		if err := SpeedupSweep(&buf, Test, []int{1, 2, 4, 8}); err != nil {
			t.Fatal(err)
		}
		if err := TableScaling(&buf, Test, []int{8, 16, 32}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// Workers == 1 is the strictly sequential scheduler; wider pools use
	// the weighted scheduler (SMP/hybrid cells pack several to a worker
	// slot), and the printed artifacts must not change by a byte either
	// way.
	sequential := render(1)
	for _, w := range []int{2, 8, 32} {
		if got := render(w); got != sequential {
			t.Fatalf("output with %d workers differs from sequential:\n--- %d workers ---\n%s\n--- sequential ---\n%s", w, w, got, sequential)
		}
	}
	// Sanity: the fake grid really exercises every app row and every
	// implementation column (the hybrid column included).
	for _, a := range Apps {
		if !strings.Contains(sequential, a.Name) {
			t.Errorf("rendered artifacts missing app %s", a.Name)
		}
	}
	for _, impl := range Impls {
		if !strings.Contains(sequential, implLabel(impl)) {
			t.Errorf("rendered artifacts missing impl column %s", implLabel(impl))
		}
	}
}

// TestCellWeights pins the weighted scheduler's pricing: full-protocol
// NOW cells cost a whole worker slot, hybrid cells half, and
// protocol-free cells a quarter — and the weighted pool itself respects
// its capacity under concurrent acquires.
func TestCellWeights(t *testing.T) {
	for impl, want := range map[Impl]int{
		OMP: weightNOW, Tmk: weightNOW,
		OMPHybrid: weightHybrid, HybridImpl(1): weightHybrid, HybridImpl(4): weightHybrid,
		Seq: weightCheap, OMPSMP: weightCheap, MPI: weightCheap,
	} {
		if got := CellWeight(impl); got != want {
			t.Errorf("CellWeight(%s) = %d, want %d", impl, got, want)
		}
	}
	if weightNOW != CellUnitsPerWorker {
		t.Errorf("a NOW cell (weight %d) should occupy exactly one worker slot (%d units)",
			weightNOW, CellUnitsPerWorker)
	}

	const capacity = 8
	pool := NewWeightedPool(capacity)
	var mu sync.Mutex
	inUse, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		w := 1 + i%4
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool.Acquire(w)
			mu.Lock()
			inUse += w
			if inUse > peak {
				peak = inUse
			}
			if inUse > capacity {
				mu.Unlock()
				t.Errorf("weighted pool over capacity: %d > %d", inUse, capacity)
				pool.Release(w)
				return
			}
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			inUse -= w
			mu.Unlock()
			pool.Release(w)
		}(w)
	}
	wg.Wait()
	if peak == 0 {
		t.Error("pool admitted nothing")
	}
}

// TestGridErrorNamesFailingCell pins fail-fast attribution: whichever
// table row an inherited error surfaces at, the message must name the
// cell that actually failed, at every pool width.
func TestGridErrorNamesFailingCell(t *testing.T) {
	origWorkers := Workers
	failImpl, failProcs := Tmk, 8
	failApp := Apps[len(Apps)-1].Name // a late table row, so wide pools inherit early
	restore := swapRunCell(func(a App, s Scale, impl Impl, procs int) (apps.Result, error) {
		if a.Name == failApp && impl == failImpl && procs == failProcs {
			return apps.Result{}, fmt.Errorf("synthetic cell failure")
		}
		return fakeCell(a, s, impl, procs)
	})
	defer func() { restore(); Workers = origWorkers }()
	want := fmt.Sprintf("cell %s/%s/p%d failed", failApp, failImpl, failProcs)
	for _, w := range []int{1, 4, 32} {
		Workers = w
		var buf bytes.Buffer
		err := Figure6(&buf, Test, failProcs)
		if err == nil {
			t.Fatalf("workers=%d: expected an error", w)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("workers=%d: error %q does not name failing cell (want %q)", w, err, want)
		}
		if !strings.Contains(err.Error(), "synthetic cell failure") {
			t.Errorf("workers=%d: error %q lost the underlying cause", w, err)
		}
	}
}
