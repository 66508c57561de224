package dsm

// Wire format: compact encodings for the consistency trailer (sender
// vector clock + interval records), the join's and the lock grant's tails,
// the fetch exchange's items and the consensus push's relay list.
//
//   - Vector clocks travel as LEB128 varints (uv), so the mostly-small
//     components of a young clock cost one byte instead of four.
//   - A record batch shares one base clock (the componentwise minimum of
//     the batch's record clocks); each record carries only its sparse
//     delta against the base. A record's sequence number is never
//     encoded: the protocol invariant ivl.vc[creator] == seq+1 (see
//     closeIntervalLocked) lets the decoder derive it.
//   - Write-notice page lists are sorted and run-length encoded as
//     (gap, runLen) pairs: QSORT/Sweep3D notices are dense runs, Water's
//     are short strides, and both collapse to a few bytes per run.
//   - Every datagram carries one protocol message of its own type; there is
//     no envelope of sub-messages. A tree-routed consensus push appends its
//     relay list after the trailer (putRelay).
//
// Every decode path validates wire-supplied counts against the bytes
// actually remaining before allocating, and fails only via the typed
// wireError panic — the contract the fuzz suite (wire_test.go) pins.

import "slices"

// maxPagesPerRecord caps the decoded page list of one interval record. A
// legitimate record's notices are bounded by the shared heap's page count
// (well under a million pages at any configured heap size); beyond that
// the run-length form can only be describing a corrupted frame.
const maxPagesPerRecord = 1 << 20

// putVC writes a self-contained varint vector clock. The encoding is
// self-delimiting, so trailer consumers that only need the clock prefix
// (gatherArrivals, slaveLoop) can stop after getVC.
func putVC(w *wbuf, v VectorClock) {
	w.uv(uint64(len(v)))
	for _, x := range v {
		w.uv(uint64(x))
	}
}

// getVC decodes a varint vector clock into dst's room, or a new clock for
// dst nil (each component is at least one wire byte, so the count is
// validated against the bytes remaining).
func getVC(r *rbuf, dst VectorClock) VectorClock {
	n := r.needCount(r.uvi(), 1)
	v := slices.Grow(dst[:0], n)[:n]
	for i := range v {
		v[i] = int32(r.uv())
	}
	return v
}

// encodeRecords writes a record batch in the compact form: count, base
// clock (componentwise minimum), then per record the creator, the sparse
// clock delta against the base, and the run-length-encoded page list.
// Page lists are ascending already: a node's own records are sorted once,
// when the interval closes, and decoded ones arrive sorted.
func encodeRecords(w *wbuf, ivls []*interval) {
	w.uv(uint64(len(ivls)))
	if len(ivls) == 0 {
		return
	}
	var stack [stackClock]int32
	base := append(VectorClock(stack[:0]), ivls[0].vc...)
	for _, ivl := range ivls[1:] {
		for i, x := range ivl.vc {
			if x < base[i] {
				base[i] = x
			}
		}
	}
	putVC(w, base)
	for _, ivl := range ivls {
		w.uv(uint64(ivl.creator))
		ndiff := 0
		for i, x := range ivl.vc {
			if x != base[i] {
				ndiff++
			}
		}
		w.uv(uint64(ndiff))
		for i, x := range ivl.vc {
			if x != base[i] {
				w.uv(uint64(i))
				w.uv(uint64(x - base[i]))
			}
		}
		encodePageRuns(w, ivl.pages)
	}
}

// encodePageRuns writes an ascending page-id list as (gap, runLen-1)
// varint pairs: gap is the distance from the end of the previous run
// (initially page 0) to the run's first id.
func encodePageRuns(w *wbuf, pages []PageID) {
	runs := 0
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 {
			j++
		}
		runs++
		i = j
	}
	w.uv(uint64(runs))
	prev := PageID(0)
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 {
			j++
		}
		w.uv(uint64(pages[i] - prev))
		w.uv(uint64(j - i - 1))
		prev = pages[j-1] + 1
		i = j
	}
}

// decodeRecords decodes what encodeRecords writes, deriving each
// record's sequence number from its reconstructed clock. All counts,
// indices, and accumulated values are validated before use; any
// malformation fails via wireError.
func decodeRecords(r *rbuf) []*interval { return (*Node)(nil).decodeRecordsLocked(r) }

// decodeRecordsLocked is decodeRecords against the receiving node's store
// (n nil: none). A record the node holds, retired or created decodes to its
// stored record (or a {creator, seq} stand-in), its page runs only checked;
// only a new record gets a clock and page list. Requires n.mu.
func (n *Node) decodeRecordsLocked(r *rbuf) []*interval {
	// A record is at least 3 bytes (creator, ndiff, nruns varints).
	count := r.needCount(r.uvi(), 3)
	if count == 0 {
		return nil
	}
	var stack [stackClock]int32
	base := getVC(r, stack[:0])
	buf := new(VectorClock) // every record's clock is rebuilt here
	if n != nil {
		buf = &n.vcBuf
	}
	*buf = slices.Grow((*buf)[:0], len(base))[:len(base)]
	vc := *buf
	out := make([]*interval, count)
	for k := range out {
		creator := r.uvi()
		if creator >= len(base) {
			panic(wireErrf("dsm: short message: record creator %d outside %d-node clock", creator, len(base)))
		}
		copy(vc, base)
		ndiff := r.needCount(r.uvi(), 2)
		if ndiff > len(vc) {
			panic(wireErrf("dsm: short message: %d clock deltas for a %d-node clock", ndiff, len(vc)))
		}
		for i := 0; i < ndiff; i++ {
			idx := r.uvi()
			if idx >= len(vc) {
				panic(wireErrf("dsm: short message: clock delta index %d outside %d-node clock", idx, len(vc)))
			}
			sum := int64(vc[idx]) + int64(r.uv())
			if sum > maxUvarint {
				panic(wireErrf("dsm: short message: clock component %d overflows", sum))
			}
			vc[idx] = int32(sum)
		}
		if vc[creator] < 1 {
			panic(wireErrf("dsm: short message: record clock has no interval for creator %d", creator))
		}
		seq := int(vc[creator]) - 1
		if n != nil && creator < len(n.intervals) {
			idx, have := seq-n.ivlBase[creator], n.intervals[creator]
			if idx >= 0 && idx < len(have) {
				out[k] = have[idx]
			} else if idx < 0 || creator == n.id {
				out[k] = &interval{creator: creator, seq: seq}
			}
		}
		if out[k] != nil {
			decodePageRuns(r, false)
		} else {
			out[k] = &interval{creator: creator, seq: seq, vc: vc.clone(), pages: decodePageRuns(r, true)}
		}
	}
	return out
}

// decodePageRuns reconstructs an ascending page-id list from its
// (gap, runLen-1) pairs, bounding both the total page count and the
// largest reconstructed id; with keep false it only validates.
func decodePageRuns(r *rbuf, keep bool) []PageID {
	nruns := r.needCount(r.uvi(), 2)
	var pages []PageID
	prev, total := int64(0), int64(0)
	for i := 0; i < nruns; i++ {
		start := prev + int64(r.uv())
		runLen := int64(r.uv()) + 1
		if total+runLen > maxPagesPerRecord {
			panic(wireErrf("dsm: short message: record pages exceed cap %d", maxPagesPerRecord))
		}
		if start+runLen-1 > maxUvarint {
			panic(wireErrf("dsm: short message: page id %d overflows", start+runLen-1))
		}
		total += runLen
		for p := int64(0); keep && p < runLen; p++ {
			pages = append(pages, PageID(start+p))
		}
		prev = start + runLen
	}
	return pages
}

// stackClock is the size of the batch base clock that encodeRecords and
// decodeRecordsLocked keep on their stacks: every configured system fits,
// and a larger clock is allocated.
const stackClock = 128

// putTrailer writes the consistency trailer, sender clock plus interval
// records, in place.
func putTrailer(w *wbuf, vc VectorClock, recs []*interval) {
	w.room(len(vc) + 8*len(recs) + 8) // most trailers: one buffer, no regrowth
	putVC(w, vc)
	encodeRecords(w, recs)
}

// putJoin writes a join: the consistency trailer, then the region's tail
// (RegisterTail) as raw bytes to the end of the message — none at all when
// the tail is empty, so a tail-less join IS the bare trailer.
func putJoin(w *wbuf, vc VectorClock, recs []*interval, tail []byte) {
	putTrailer(w, vc, recs)
	w.raw(tail)
}

// takeTrailerLocked decodes a trailer from node `from` against the node's
// store, incorporates it and notes the sender's clock, which it returns in
// the node's scratch: a caller that keeps it past n.mu clones it.
func (n *Node) takeTrailerLocked(r *rbuf, from int) VectorClock {
	n.senderBuf = getVC(r, n.senderBuf)
	n.incorporateLocked(n.decodeRecordsLocked(r), n.senderBuf)
	n.noteHeardLocked(from, n.senderBuf)
	return n.senderBuf
}

// getJoinTail returns a copy of what follows a join's decoded trailer (nil
// when nothing does): the master keeps it, and the payload goes back to
// the pool.
func getJoinTail(r *rbuf) []byte {
	return append([]byte(nil), r.need(r.remaining())...)
}

// grantDiff is one diff a lock grant carries behind its trailer: the page,
// the trailer record (by index) whose notice it settles, and the diff.
type grantDiff struct {
	pid  PageID
	rec  int
	data []byte
}

// putGrantData writes uv(count), then per diff uv(pid), uv(record index)
// and the length-prefixed diff — or, for none, nothing at all.
func putGrantData(w *wbuf, diffs []grantDiff) {
	if len(diffs) == 0 {
		return
	}
	w.uv(uint64(len(diffs)))
	for _, d := range diffs {
		w.uv(uint64(d.pid))
		w.uv(uint64(d.rec))
		w.bytes(d.data)
	}
}

// getGrantData decodes what putGrantData writes (nil for nothing),
// validating the count, every page id against the heap's npages and every
// record index against the trailer's nrecs before anything is allocated or
// looked up. The diffs are views: grants are reply-class.
func getGrantData(r *rbuf, nrecs, npages int) []grantDiff {
	if r.done() {
		return nil
	}
	out := make([]grantDiff, r.needCount(r.uvi(), 6)) // pid, record, 4-byte length
	for i := range out {
		pid, rec := r.uvi(), r.uvi()
		if pid >= npages || rec >= nrecs {
			panic(wireErrf("dsm: grant diff for page %d of record %d outside %d pages, %d records", pid, rec, npages, nrecs))
		}
		out[i] = grantDiff{pid: PageID(pid), rec: rec, data: r.view()}
	}
	return out
}

// fetchItem is one entry of a msgFetchReq/msgFetchRep pair: a whole page
// (seq < 0) or the diff of the serving node's interval seq for the page. A
// request's diff item may name later intervals of the same creator too
// (later, ascending): the reply then carries one diff merged from all of
// them (mergeDiffs). data is the reply's content and stays nil in a request.
type fetchItem struct {
	pid   PageID
	seq   int
	later []int
	data  []byte
}

// encodeFetch writes a fetch exchange's item list: the count, then per item
// uv(pid), uv(seq+1) — 0 names the whole page — and, in a reply, the
// length-prefixed content (a page's as putPage). A reply's count is
// uv(count). A request's is uv(2·count + grouped), still one byte at the
// HomeBlockPages cap; only a grouped request gives each diff item uv(k)
// and its k later seqs, each as uv(the gap from the seq before it), so a
// request that merges nothing spends no byte on grouping.
func encodeFetch(w *wbuf, items []fetchItem, reply bool) {
	grouped := !reply && slices.ContainsFunc(items, func(it fetchItem) bool { return len(it.later) > 0 })
	switch {
	case reply:
		w.uv(uint64(len(items)))
	case grouped:
		w.uv(uint64(2*len(items) + 1))
	default:
		w.uv(uint64(2 * len(items)))
	}
	for _, it := range items {
		w.uv(uint64(it.pid))
		w.uv(uint64(it.seq + 1))
		if grouped && it.seq >= 0 {
			w.uv(uint64(len(it.later)))
			prev := it.seq
			for _, s := range it.later {
				w.uv(uint64(s - prev))
				prev = s
			}
		}
		switch {
		case reply && it.seq < 0:
			w.putPage(it.data)
		case reply:
			w.bytes(it.data)
		}
	}
}

// decodeFetch decodes what encodeFetch writes. A reply's contents are
// views into the message (see rbuf.view). A REQUEST naming more than
// HomeBlockPages items is malformed: one item earns one blob, and the cap
// is what keeps the reply inside one datagram — the server enforces it
// rather than trusting every builder of requests to. A group's later seqs
// must ascend, and its count is validated like every other.
func decodeFetch(r *rbuf, reply bool) []fetchItem {
	minBytes := 2 // pid and seq varints
	if reply {
		minBytes += 4 // content length
	}
	count, grouped := r.uvi(), false
	if !reply {
		count, grouped = count>>1, count&1 == 1
	}
	count = r.needCount(count, minBytes)
	if !reply && count > HomeBlockPages {
		panic(wireErrf("dsm: fetch request names %d items, cap %d", count, HomeBlockPages))
	}
	items := make([]fetchItem, count)
	for i := range items {
		it := &items[i]
		it.pid = PageID(r.uvi())
		it.seq = r.uvi() - 1
		if grouped && it.seq >= 0 {
			if k := r.needCount(r.uvi(), 1); k > 0 {
				it.later = make([]int, k)
				prev := it.seq
				for j := range it.later {
					gap := r.uvi()
					if gap == 0 || prev+gap > maxUvarint {
						panic(wireErrf("dsm: fetch group seq %d after %d", prev+gap, prev))
					}
					prev += gap
					it.later[j] = prev
				}
			}
		}
		if reply {
			if it.data = r.view(); it.seq < 0 && len(it.data) > PageSize {
				panic(wireErrf("dsm: whole-page item of %d bytes for page %d", len(it.data), it.pid))
			}
		}
	}
	return items
}

// putRelay appends a tree-routed consensus push's relay list — the
// destinations past the receiving hop — after its trailer: a varint count
// and one varint node id each. An empty list writes nothing, so a push to
// its final destination or a reverse delta ends with its trailer.
func putRelay(w *wbuf, relay []int) {
	if len(relay) == 0 {
		return
	}
	w.uv(uint64(len(relay)))
	for _, t := range relay {
		w.uv(uint64(t))
	}
}

// getRelay decodes what putRelay wrote, if anything remains, rejecting a
// destination outside the procs-node system.
func getRelay(r *rbuf, procs int) []int {
	if r.done() {
		return nil
	}
	relay := make([]int, r.needCount(r.uvi(), 1))
	for i := range relay {
		if relay[i] = r.uvi(); relay[i] >= procs {
			panic(wireErrf("dsm: consensus relay target %d outside %d-node system", relay[i], procs))
		}
	}
	return relay
}
