// Package tsp reproduces the paper's TSP application: "TSP solves the
// traveling salesman problem using a branch-and-bound algorithm. The major
// data structures are a pool of partially evaluated tours, a priority
// queue containing pointers to tours in the pool, a stack of pointers to
// unused tour elements in the pool, and the current shortest path. A
// process repeatedly dequeues the most promising path from the priority
// queue, extends it by one city and enqueues the new path, or takes the
// dequeued path and tries all permutations of the remaining nodes."
//
// Per Table 1 the OpenMP version uses a parallel region with critical
// sections only: "Because of the use of [the] priority queue, the dequeue
// and the following enqueue operations by the same processor are actually
// carried out within one critical section. Therefore there is no need to
// use condition variables for TSP."
package tsp

import (
	"container/heap"
	"math"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// Params configures one TSP run.
type Params struct {
	// NCities is the problem size.
	NCities int
	// CutoffRemain: a dequeued tour with at most this many unvisited
	// cities is solved exhaustively (the "tries all permutations" leaf).
	CutoffRemain int
	// Seed drives the deterministic city coordinates.
	Seed uint64
	// PoolSlots bounds the tour pool (shared-memory versions).
	PoolSlots int
	// Platform overrides the cost model.
	Platform *sim.Platform
	// DSM carries the protocol knobs of the DSM-backed implementations
	// (DisableGC, GCPressure — see
	// dsm.Config); the run fills Procs, HeapBytes and Platform itself.
	// TSP synchronizes through critical sections only, so between region
	// boundaries only the consensus trigger collects for it.
	DSM dsm.Config
}

// Default returns the paper-scale configuration. The cutoff leaves most
// of the search inside the exhaustive leaf solver, so tasks are coarse:
// the paper's TSP scales because processes spend their time permuting
// tours, not contending for the queue.
func Default() Params {
	return Params{NCities: 14, CutoffRemain: 11, Seed: 1234, PoolSlots: 1 << 15}
}

// Small returns a test-scale configuration. The cutoff keeps leaf solves
// substantial relative to queue traffic, as in the full configuration.
func Small() Params {
	return Params{NCities: 11, CutoffRemain: 8, Seed: 1234, PoolSlots: 1 << 12}
}

// Cities builds the deterministic Euclidean distance matrix.
func Cities(p Params) [][]float64 {
	rng := sim.NewRNG(p.Seed)
	n := p.NCities
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = 100 * rng.Float64()
		ys[i] = 100 * rng.Float64()
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			d[i][j] = math.Sqrt(dx*dx + dy*dy)
		}
	}
	return d
}

// minIncident returns, per city, the smallest incident edge weight: the
// admissible remaining-cost bound is the sum over unvisited cities of
// their minimum incident edge (each unvisited city must still be entered
// exactly once).
func minIncident(d [][]float64) []float64 {
	n := len(d)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		m := math.Inf(1)
		for j := 0; j < n; j++ {
			if i != j && d[i][j] < m {
				m = d[i][j]
			}
		}
		out[i] = m
	}
	return out
}

// Tour is a partially evaluated path starting at city 0.
type Tour struct {
	Path    []int8 // visited cities in order; Path[0] == 0
	Visited uint32 // bitmask
	Length  float64
	Bound   float64 // admissible lower bound on any completion
}

// bound computes Length plus the sum of minimum incident edges of the
// unvisited cities.
func bound(length float64, visited uint32, minInc []float64, n int) float64 {
	b := length
	for c := 0; c < n; c++ {
		if visited&(1<<uint(c)) == 0 {
			b += minInc[c]
		}
	}
	return b
}

// extend generates the children of t (one new city appended each).
func extend(t *Tour, d [][]float64, minInc []float64, n int) []*Tour {
	last := int(t.Path[len(t.Path)-1])
	var out []*Tour
	for c := 0; c < n; c++ {
		if t.Visited&(1<<uint(c)) != 0 {
			continue
		}
		nl := t.Length + d[last][c]
		child := &Tour{
			Path:    append(append(make([]int8, 0, len(t.Path)+1), t.Path...), int8(c)),
			Visited: t.Visited | 1<<uint(c),
			Length:  nl,
		}
		child.Bound = bound(nl, child.Visited, minInc, n)
		out = append(out, child)
	}
	return out
}

// solveLeaf exhaustively completes t with depth-first search, pruning
// against best. It returns the best completion found (or best unchanged)
// and the number of search nodes expanded (for cost accounting).
func solveLeaf(t *Tour, d [][]float64, best float64, n int) (float64, int64) {
	var nodes int64
	last := int(t.Path[len(t.Path)-1])
	var dfs func(last int, visited uint32, length float64, left int)
	dfs = func(last int, visited uint32, length float64, left int) {
		nodes++
		if length >= best {
			return
		}
		if left == 0 {
			total := length + d[last][0]
			if total < best {
				best = total
			}
			return
		}
		for c := 0; c < n; c++ {
			if visited&(1<<uint(c)) != 0 {
				continue
			}
			dfs(c, visited|1<<uint(c), length+d[last][c], left-1)
		}
	}
	dfs(last, t.Visited, t.Length, n-len(t.Path))
	return best, nodes
}

// leafNodeFlops is the virtual cost per DFS node expanded.
const leafNodeFlops = 10.0

// pq is a min-heap of tours by bound (sequential version).
type pq []*Tour

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].Bound < q[j].Bound }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(*Tour)) }
func (q *pq) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// RunSeq executes the sequential branch and bound.
func RunSeq(p Params) apps.Result {
	m := sim.NewMeter(p.Platform)
	d := Cities(p)
	minInc := minIncident(d)
	n := p.NCities
	m.Compute(float64(n * n * 12))

	root := &Tour{Path: []int8{0}, Visited: 1, Length: 0}
	root.Bound = bound(0, 1, minInc, n)
	q := pq{root}
	best := math.Inf(1)
	for q.Len() > 0 {
		t := heap.Pop(&q).(*Tour)
		m.Compute(20 * math.Log2(float64(q.Len()+2)))
		if t.Bound >= best {
			continue
		}
		if n-len(t.Path) <= p.CutoffRemain {
			var nodes int64
			best, nodes = solveLeaf(t, d, best, n)
			m.Compute(leafNodeFlops * float64(nodes))
			continue
		}
		for _, child := range extend(t, d, minInc, n) {
			m.Compute(float64(n) * 4)
			if child.Bound < best {
				heap.Push(&q, child)
				m.Compute(20 * math.Log2(float64(q.Len()+2)))
			}
		}
	}
	return apps.Result{Checksum: best, Time: m.Elapsed()}
}
