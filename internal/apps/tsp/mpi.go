package tsp

import (
	"container/heap"
	"math"
	"sync"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/mpi"
)

// Message tags of the MPI version.
const (
	tagWork = 1 // coordinator → worker: a tour to process (or "done")
	tagReq  = 2 // worker → coordinator: result of last task + new tours
)

// RunMPI executes the message-passing version as a coordinator/worker
// program: rank 0 owns the priority queue, the pool, and the best bound;
// workers request tours, solve leaves locally, and return extensions and
// improved bounds with their next request. (With one process the program
// degenerates to the sequential solver — there are no workers to feed.)
func RunMPI(p Params, procs int) (apps.Result, error) {
	if procs == 1 {
		// Coordinator-worker needs at least one worker; a one-process
		// MPI job is just the sequential program.
		res := RunSeq(p)
		return res, nil
	}
	world := mpi.New(mpi.Config{Procs: procs, Platform: p.Platform})
	n := p.NCities

	var mu sync.Mutex
	var best float64

	err := world.Run(func(r *mpi.Rank) {
		d := Cities(p)
		minInc := minIncident(d)
		r.Compute(float64(n * n * 12))

		if r.ID() == 0 {
			coordinator(r, p, d, minInc, &mu, &best)
			return
		}
		workerMPI(r, p, d, minInc)
	})
	if err != nil {
		return apps.Result{}, err
	}
	msgs, bytes := world.Switch().Stats().Snapshot()
	return apps.Result{Checksum: best, Time: world.MaxClock(), Report: dsm.Report{Messages: msgs, Bytes: bytes}}, nil
}

// encodeTour/decodeTour move tours across rank boundaries.
func encodeTour(t *Tour) []byte {
	b := make([]byte, 0, 24+len(t.Path))
	b = appendF64(b, t.Length)
	b = appendF64(b, t.Bound)
	b = appendU32(b, t.Visited)
	b = append(b, byte(len(t.Path)))
	for _, c := range t.Path {
		b = append(b, byte(c))
	}
	return b
}

func decodeTour(b []byte) (*Tour, []byte) {
	t := &Tour{}
	t.Length, b = takeF64(b)
	t.Bound, b = takeF64(b)
	t.Visited, b = takeU32(b)
	plen := int(b[0])
	b = b[1:]
	t.Path = make([]int8, plen)
	for i := 0; i < plen; i++ {
		t.Path[i] = int8(b[i])
	}
	return t, b[plen:]
}

// coordinator serves tours from the shared queue and merges results.
func coordinator(r *mpi.Rank, p Params, d [][]float64, minInc []float64, mu *sync.Mutex, bestOut *float64) {
	n := p.NCities
	root := &Tour{Path: []int8{0}, Visited: 1, Length: 0}
	root.Bound = bound(0, 1, minInc, n)
	q := pq{root}
	heap.Init(&q)
	best := math.Inf(1)
	outstanding := 0
	var parked []int
	doneSent := 0

	serveOne := func(to int) bool {
		for q.Len() > 0 {
			t := heap.Pop(&q).(*Tour)
			r.Compute(20 * math.Log2(float64(q.Len()+2)))
			if t.Bound >= best {
				continue
			}
			msg := appendF64(nil, best)
			msg = append(msg, 1) // has work
			msg = append(msg, encodeTour(t)...)
			r.Send(to, tagWork, msg)
			outstanding++
			return true
		}
		return false
	}

	for doneSent < r.Procs()-1 {
		from, req := r.RecvFrom(mpi.AnySource, tagReq)
		// Request: [first byte flag][candidate best][k tours...]
		first := req[0] == 1
		req = req[1:]
		var cand float64
		cand, req = takeF64(req)
		if cand < best {
			best = cand
		}
		if !first {
			outstanding--
		}
		var nt uint32
		nt, req = takeU32(req)
		for i := uint32(0); i < nt; i++ {
			var t *Tour
			t, req = decodeTour(req)
			if t.Bound < best {
				heap.Push(&q, t)
				r.Compute(20 * math.Log2(float64(q.Len()+2)))
			}
		}

		// Serve this worker, then anyone parked (new work may have come).
		if !serveOne(from) {
			parked = append(parked, from)
		}
		for len(parked) > 0 && q.Len() > 0 {
			w := parked[0]
			if !serveOne(w) {
				break
			}
			parked = parked[1:]
		}
		// Termination: nothing queued, nothing in flight.
		if q.Len() == 0 && outstanding == 0 {
			for _, w := range parked {
				r.Send(w, tagWork, append(appendF64(nil, best), 0))
				doneSent++
			}
			parked = nil
			// Remaining workers will check in once more; answer done.
			for doneSent < r.Procs()-1 {
				from, req := r.RecvFrom(mpi.AnySource, tagReq)
				c, _ := takeF64(req[1:])
				if c < best {
					best = c
				}
				r.Send(from, tagWork, append(appendF64(nil, best), 0))
				doneSent++
			}
		}
	}
	mu.Lock()
	*bestOut = best
	mu.Unlock()
}

// workerMPI pulls tours, extends or leaf-solves them, and reports back.
func workerMPI(r *mpi.Rank, p Params, d [][]float64, minInc []float64) {
	n := p.NCities
	req := []byte{1} // first request
	req = appendF64(req, math.Inf(1))
	req = appendU32(req, 0)
	for {
		r.Send(0, tagReq, req)
		rep := r.Recv(0, tagWork)
		curBest, rest := takeF64(rep)
		if rest[0] == 0 {
			return // done
		}
		t, _ := decodeTour(rest[1:])

		cand := math.Inf(1)
		var children []*Tour
		if n-len(t.Path) <= p.CutoffRemain {
			improved, nodes := solveLeaf(t, d, curBest, n)
			r.Compute(leafNodeFlops * float64(nodes))
			if improved < curBest {
				cand = improved
			}
		} else {
			for _, child := range extend(t, d, minInc, n) {
				r.Compute(float64(n) * 4)
				if child.Bound < curBest {
					children = append(children, child)
				}
			}
		}

		req = []byte{0}
		req = appendF64(req, cand)
		req = appendU32(req, uint32(len(children)))
		for _, c := range children {
			req = append(req, encodeTour(c)...)
		}
	}
}
