package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
)

// Binomial-tree collectives in the style of period-correct MPICH. All
// internal tags are large negative numbers so they never collide with
// application tags (which must be non-negative).

const (
	tagBarrierUp = -1000 - iota
	tagBarrierDown
	tagBcast
	tagReduce
	tagGather
	tagAlltoall
	tagScatter
	tagAllreduce
)

// Barrier blocks until every rank has entered it (binomial gather to rank
// 0 followed by a binomial broadcast).
func (r *Rank) Barrier() {
	r.gatherTree(tagBarrierUp, nil, nil)
	r.bcastTree(tagBarrierDown, nil)
}

// Bcast distributes root's data to every rank and returns each rank's
// copy. Non-root ranks pass nil.
func (r *Rank) Bcast(root int, data []byte) []byte {
	if r.id != root {
		data = nil
	}
	return r.bcastTreeAt(tagBcast, root, data)
}

// bcastTree runs a binomial broadcast rooted at rank 0.
func (r *Rank) bcastTree(tag int, data []byte) []byte {
	return r.bcastTreeAt(tag, 0, data)
}

// bcastTreeAt runs a binomial broadcast rooted at `root`: ranks are
// relabeled so the root becomes virtual rank 0, and messages are addressed
// back through the inverse relabeling. Each rank receives from its exact
// tree parent (the virtual rank with my lowest set bit cleared) — with
// per-pair FIFO delivery this keeps back-to-back broadcasts from
// different roots from stealing each other's payloads.
func (r *Rank) bcastTreeAt(tag, root int, data []byte) []byte {
	p := r.Procs()
	vme := (r.id - root + p) % p
	if vme != 0 {
		vparent := vme & (vme - 1)
		data = r.Recv((vparent+root)%p, tag)
	}
	// mask walks from the highest power of two below p down to 1.
	mask := 1
	for mask < p {
		mask <<= 1
	}
	mask >>= 1
	// Find my level: lowest set bit (virtual rank 0 acts at every level).
	for ; mask > 0; mask >>= 1 {
		if vme&(mask-1) == 0 && vme&mask == 0 {
			vpeer := vme | mask
			if vpeer < p {
				r.Send((vpeer+root)%p, tag, data)
			}
		}
	}
	return data
}

// gatherTree runs a binomial gather to rank 0, combining payloads with
// combine (which may be nil when only synchronization is needed). It
// returns the combined value at rank 0 and nil elsewhere.
func (r *Rank) gatherTree(tag int, data []byte, combine func(a, b []byte) []byte) []byte {
	p := r.Procs()
	me := r.id
	for mask := 1; mask < p; mask <<= 1 {
		if me&mask != 0 {
			r.Send(me&^mask, tag, data)
			return nil
		}
		peer := me | mask
		if peer < p {
			got := r.Recv(peer, tag)
			if combine != nil {
				data = combine(data, got)
			}
		}
	}
	return data
}

// ReduceOp combines two float64 values.
type ReduceOp func(a, b float64) float64

// OpSum adds; OpMin and OpMax select.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMin ReduceOp = func(a, b float64) float64 {
		if b < a {
			return b
		}
		return a
	}
	OpMax ReduceOp = func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	}
)

// Reduce combines the element-wise reduction of data across ranks at rank
// 0 (binomial tree) and returns it there; other ranks get nil. A rank folds
// each received part, read-only, into its own accumulator bytes in place.
func (r *Rank) Reduce(op ReduceOp, data []float64) []float64 {
	out := r.gatherTree(tagReduce, F64sToBytes(data), func(acc, part []byte) []byte {
		for i := 0; i+8 <= len(acc); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(acc[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(part[i:]))
			binary.LittleEndian.PutUint64(acc[i:], math.Float64bits(op(a, b)))
		}
		return acc
	})
	if r.id != 0 {
		return nil
	}
	return BytesToF64s(out)
}

// Allreduce is Reduce followed by an internal broadcast; every rank gets
// the result. The broadcast runs under its own tag: sharing tagBcast with
// application-level Bcast calls would let the two operations' payloads
// cross on a (source, tag) match whenever the tree parents coincide —
// the same aliasing that broke pre-fix nonzero-root Bcast.
func (r *Rank) Allreduce(op ReduceOp, data []float64) []float64 {
	red := r.Reduce(op, data)
	var b []byte
	if r.id == 0 {
		b = F64sToBytes(red)
	}
	return BytesToF64s(r.bcastTree(tagAllreduce, b))
}

// Gather collects each rank's data at rank 0, ordered by rank; other
// ranks get nil. (Linear, as period MPICH gathers were for small counts.)
func (r *Rank) Gather(data []byte) [][]byte {
	p := r.Procs()
	if r.id != 0 {
		r.Send(0, tagGather, data)
		return nil
	}
	out := make([][]byte, p)
	out[0] = data
	for i := 1; i < p; i++ {
		out[i] = r.Recv(i, tagGather)
	}
	return out
}

// Allgather collects each rank's data and hands every rank the
// rank-ordered concatenation (a gather at rank 0 followed by a broadcast,
// as period MPICH implemented it for small counts).
func (r *Rank) Allgather(data []byte) []byte {
	parts := r.Gather(data)
	var full []byte
	if r.id == 0 {
		full = bytes.Join(parts, nil) // sized once from the parts
	}
	return r.Bcast(0, full)
}

// Alltoall performs the complete exchange at the heart of the 3D-FFT
// transpose: chunks[i] goes to rank i; the returned slice holds the chunk
// received from each rank. Implemented pairwise (rank r exchanges with
// rank r XOR k in step k when p is a power of two, falling back to a
// shifted schedule otherwise).
func (r *Rank) Alltoall(chunks [][]byte) [][]byte {
	p := r.Procs()
	if len(chunks) != p {
		panic("mpi: Alltoall needs exactly one chunk per rank")
	}
	out := make([][]byte, p)
	out[r.id] = chunks[r.id]
	for step := 1; step < p; step++ {
		var peer int
		if p&(p-1) == 0 {
			peer = r.id ^ step
		} else {
			peer = (r.id + step) % p
		}
		recvPeer := peer
		if p&(p-1) != 0 {
			recvPeer = (r.id - step + p) % p
		}
		r.Send(peer, tagAlltoall, chunks[peer])
		out[recvPeer] = r.Recv(recvPeer, tagAlltoall)
	}
	return out
}

// Scatter distributes chunks from rank 0: rank i receives chunks[i].
// Non-root ranks pass nil.
func (r *Rank) Scatter(chunks [][]byte) []byte {
	p := r.Procs()
	if r.id == 0 {
		if len(chunks) != p {
			panic("mpi: Scatter needs exactly one chunk per rank")
		}
		for i := 1; i < p; i++ {
			r.Send(i, tagScatter, chunks[i])
		}
		return chunks[0]
	}
	return r.Recv(0, tagScatter)
}
