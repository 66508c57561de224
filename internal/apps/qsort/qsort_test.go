package qsort

import (
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dsm"
)

func TestPartitionSplitsStrictly(t *testing.T) {
	rngCases := [][]int32{
		{3, 1, 2},
		{5, 5, 5, 5},
		{2, 1},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		Input(Params{N: 1000, Seed: 7}),
	}
	for ci, a := range rngCases {
		buf := make([]int32, len(a))
		copy(buf, a)
		split, _ := partition(buf)
		if split <= 0 || split >= len(buf) {
			t.Fatalf("case %d: split %d of %d not strictly interior", ci, split, len(buf))
		}
		for _, x := range buf[:split] {
			for _, y := range buf[split:] {
				if x > y {
					t.Fatalf("case %d: left %d > right %d after partition", ci, x, y)
				}
			}
		}
	}
}

func TestBubbleSortSorts(t *testing.T) {
	a := Input(Params{N: 200, Seed: 3})
	bubbleSort(a)
	if !Sorted(a) {
		t.Fatal("bubbleSort failed")
	}
}

func TestSeqMatchesStdlibSort(t *testing.T) {
	p := Small()
	res := RunSeq(p)
	ref := Input(p)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	if got, want := res.Checksum, Digest(ref); got != want {
		t.Fatalf("digest %v, stdlib reference %v", got, want)
	}
}

func TestOMPMatchesSeq(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{1, 2, 4} {
		got, err := RunOMP(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("qsort/omp", got.Checksum, want, 0); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestTmkMatchesSeq(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{2, 3, 8} {
		got, err := RunTmk(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("qsort/tmk", got.Checksum, want, 0); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestMPIMatchesSeq(t *testing.T) {
	p := Small()
	want := RunSeq(p).Checksum
	for _, procs := range []int{1, 2, 3, 4, 8} {
		got, err := RunMPI(p, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if err := apps.CheckClose("qsort/mpi", got.Checksum, want, 0); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
	}
}

func TestThresholdInvariance(t *testing.T) {
	base := Small()
	want := RunSeq(base).Checksum
	for _, th := range []int{32, 512, base.N} {
		p := base
		p.BubbleThreshold = th
		if got := RunSeq(p).Checksum; got != want {
			t.Errorf("threshold %d changed digest: %v vs %v", th, got, want)
		}
	}
}

func TestConditionVariableTerminationUnderLoad(t *testing.T) {
	// Tiny array with many workers: most threads spend the run waiting
	// on the condition variable; termination must still broadcast
	// cleanly.
	p := Params{N: 512, BubbleThreshold: 64, Seed: 5, QueueCap: 256}
	want := RunSeq(p).Checksum
	got, err := RunOMP(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.CheckClose("qsort/omp-tiny", got.Checksum, want, 0); err != nil {
		t.Error(err)
	}
}

// TestLockGrantOracle: the task queue's grants carry the critical
// section's data (dsm lock.go), and every read of the run — queue,
// subarrays, the final image — must match the shadow memory, on every DSM
// implementation, collecting by default and at every opportunity.
func TestLockGrantOracle(t *testing.T) {
	want := RunSeq(Small()).Checksum
	for _, pressure := range []int{0, 1} {
		p := Small()
		p.DSM.GCPressure = pressure
		for name, run := range map[string]func() (apps.Result, error){
			"omp":        func() (apps.Result, error) { return RunOMP(p, 8) },
			"tmk":        func() (apps.Result, error) { return RunTmk(p, 8) },
			"omp-hybrid": func() (apps.Result, error) { return RunOMPOn(p, 8, core.HybridIslands(4)) },
		} {
			dsm.SetDebugOracle(true)
			got, err := run()
			div := dsm.OracleDiverges()
			dsm.SetDebugOracle(false)
			if err != nil {
				t.Fatalf("%s, pressure %d: %v", name, pressure, err)
			}
			if div > 0 {
				t.Errorf("%s, pressure %d: %d reads diverged from the shadow memory", name, pressure, div)
			}
			if err := apps.CheckClose("qsort/"+name, got.Checksum, want, 0); err != nil {
				t.Errorf("pressure %d: %v", pressure, err)
			}
		}
	}
}
