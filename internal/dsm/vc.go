package dsm

// VectorClock counts, per creating node, how many of that node's intervals
// the owning node has seen (so vc[c] is also the next expected interval
// sequence number from node c). Interval stores always hold a gap-free
// prefix per creator; the protocol guarantees this because every
// consistency-bearing message carries all intervals the receiver lacks
// relative to a sound lower bound of its clock.
type VectorClock []int32

func newVC(n int) VectorClock { return make(VectorClock, n) }

func (v VectorClock) clone() VectorClock {
	out := make(VectorClock, len(v))
	copy(out, v)
	return out
}

// merge raises each component to the max of the two clocks.
func (v VectorClock) merge(o VectorClock) {
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// covers reports whether the clock includes interval (creator, seq).
func (v VectorClock) covers(creator, seq int) bool {
	return int(v[creator]) > seq
}

// dominatedBy reports whether v ≤ o componentwise.
func (v VectorClock) dominatedBy(o VectorClock) bool {
	for i, x := range v {
		if x > o[i] {
			return false
		}
	}
	return true
}

// sum returns the component total. Sorting intervals by (sum, creator, seq)
// is a valid topological linearization of the happens-before partial order,
// because strict dominance implies a strictly smaller sum; diffs of
// concurrent intervals touch disjoint bytes in data-race-free programs, so
// their relative order is immaterial.
func (v VectorClock) sum() int64 {
	var s int64
	for _, x := range v {
		s += int64(x)
	}
	return s
}

// interval is one node's record of a closed write interval: the unit of
// consistency information in lazy release consistency. A write notice is
// the pair (interval, page); we represent the notices of an interval as its
// page list. The creator additionally keeps the diffs of the interval's
// pages, encoded when the interval closes.
type interval struct {
	creator int
	seq     int // 0-based; creator's vc[creator] == seq+1 after closing it
	vc      VectorClock
	pages   []PageID

	// diffs holds the creator's encoded diff per page, and on other nodes
	// the diffs a lock grant may forward (retainDiffLocked); reclaimed by
	// the garbage collector once no node can request it again (gc.go).
	diffs map[PageID][]byte
}
