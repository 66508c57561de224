// Package qsort reproduces the paper's QSORT application: "Quicksort
// sorts an array of integers by recursively partitioning the array into
// subarrays and resorting to bubblesort when the subarray is sufficiently
// short. Quicksort employs a task queue wherein each task element is a
// pointer to a subarray. A thread repeatedly removes a subarray from the
// task queue, subdivides it, and puts generated tasks back to the task
// queue. The OpenMP EnQueue and DeQueue operations are implemented with
// critical sections and a condition variable as shown in the task queue
// example in Figure 4."
package qsort

import (
	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// Params configures one QSORT run.
type Params struct {
	// N is the number of int32 keys.
	N int
	// BubbleThreshold: subarrays at most this long are bubble-sorted.
	BubbleThreshold int
	// Seed drives the deterministic input permutation.
	Seed uint64
	// QueueCap bounds the shared task queue.
	QueueCap int
	// Platform overrides the cost model.
	Platform *sim.Platform
	// DSM carries the protocol knobs of the DSM-backed implementations
	// (DisableGC, GCPressure — see
	// dsm.Config); the run fills Procs, HeapBytes and Platform itself.
	// QSORT synchronizes through critical sections and a condition
	// variable, so between region boundaries only the consensus trigger
	// collects for it.
	DSM dsm.Config
}

// Default returns the paper-scale configuration (256K keys, bubble
// threshold 1024).
func Default() Params {
	return Params{N: 256 * 1024, BubbleThreshold: 1024, Seed: 424242, QueueCap: 1 << 13}
}

// Small returns a test-scale configuration.
func Small() Params {
	return Params{N: 8 * 1024, BubbleThreshold: 128, Seed: 424242, QueueCap: 1 << 12}
}

// Input builds the deterministic unsorted key array.
func Input(p Params) []int32 {
	rng := sim.NewRNG(p.Seed)
	a := make([]int32, p.N)
	for i := range a {
		a[i] = int32(rng.Uint64())
	}
	return a
}

// partition performs Hoare-style partitioning around the middle element
// and returns the split point and the comparison count (for virtual-time
// accounting). Both returned halves are strictly smaller than the input,
// so the task recursion always terminates.
func partition(a []int32) (split int, ops int) {
	pivot := a[len(a)/2]
	i, j := -1, len(a)
	for {
		for {
			i++
			ops++
			if a[i] >= pivot {
				break
			}
		}
		for {
			j--
			ops++
			if a[j] <= pivot {
				break
			}
		}
		if i >= j {
			return j + 1, ops
		}
		a[i], a[j] = a[j], a[i]
	}
}

// bubbleSort sorts in place and returns the comparison count — the
// paper-period leaf sort that gives QSORT its name.
func bubbleSort(a []int32) (ops int) {
	n := len(a)
	for i := 0; i < n-1; i++ {
		swapped := false
		for j := 0; j < n-1-i; j++ {
			ops++
			if a[j] > a[j+1] {
				a[j], a[j+1] = a[j+1], a[j]
				swapped = true
			}
		}
		if !swapped {
			break
		}
	}
	return ops
}

// flopsPerOp is the virtual cost per comparison/swap step.
const flopsPerOp = 3.0

// Digest reduces a sorted array to an order-sensitive checksum.
func Digest(a []int32) float64 {
	var s float64
	for i, v := range a {
		s += float64(v) * float64(i%97+1) / float64(len(a))
	}
	return s
}

// Sorted reports whether a is non-decreasing.
func Sorted(a []int32) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			return false
		}
	}
	return true
}

// sortRange sorts a[lo:hi] with the quicksort/bubble recursion, charging
// comparisons to charge. Used by the sequential and MPI leaf paths.
func sortRange(a []int32, lo, hi, threshold int, charge func(ops int)) {
	if hi-lo <= threshold {
		charge(bubbleSort(a[lo:hi]))
		return
	}
	split, ops := partition(a[lo:hi])
	charge(ops)
	sortRange(a, lo, lo+split, threshold, charge)
	sortRange(a, lo+split, hi, threshold, charge)
}

// RunSeq executes the sequential reference sort.
func RunSeq(p Params) apps.Result {
	m := sim.NewMeter(p.Platform)
	a := Input(p)
	m.Compute(2 * float64(p.N))
	sortRange(a, 0, p.N, p.BubbleThreshold, func(ops int) {
		m.Compute(flopsPerOp * float64(ops))
	})
	if !Sorted(a) {
		panic("qsort: sequential sort failed")
	}
	m.Compute(float64(p.N))
	return apps.Result{Checksum: Digest(a), Time: m.Elapsed()}
}
