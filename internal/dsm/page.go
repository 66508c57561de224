package dsm

import "encoding/binary"

// PageID identifies one page of the global shared address space.
type PageID int

// Addr is a byte offset into the global shared address space. The same
// Addr names the same logical location on every node; each node keeps its
// own private copy of the page behind it.
type Addr int

// PageSize is the granularity of access detection and consistency, as in
// TreadMarks on x86.
const PageSize = 4096

type pageState uint8

const (
	// pageInvalid: the local copy (if any) is missing the diffs listed in
	// page.missing, or the node holds no copy of it (page.holds). Any
	// access faults.
	pageInvalid pageState = iota
	// pageReadOnly: reads proceed; the first write faults to create a twin.
	pageReadOnly
	// pageReadWrite: the page has a twin belonging to the node's open
	// interval; reads and writes proceed at memory speed.
	pageReadWrite
)

// page is one node's entry for one shared page: every page the node hears
// of has one, but only a page it has held a copy of has a copy part. The
// invariant: no copy part ⇔ this node never held a copy (zeroFillLocked's
// state, home.go), so a page that write notices merely name costs its entry.
// A collector flush counts as a copy held: it drops notices, so the page
// gets a copy part marked refetch even when it had no bytes.
type page struct {
	id PageID

	// missing lists incorporated write notices whose diffs have not yet
	// been fetched and applied. Non-empty missing implies state ==
	// pageInvalid, except transiently inside the fault handler.
	missing []*interval

	state pageState

	// inGCList notes membership in the node's GC work list (gcPages):
	// pages that may hold missing notices or twins, so a collection
	// epoch walks only candidates instead of the whole page table.
	inGCList bool

	// refetch marks a copy whose notice history is incomplete: a GC flush
	// dropped covered notices this node no longer holds, so the page can
	// only be rebuilt from a whole-page fetch of the home's validated
	// copy — never from a zeros base. Set by gcFlushPageLocked, cleared
	// when a whole-page fetch lands (applyFaultLocked).
	refetch bool

	*pageCopy // nil until the page first holds a copy or is flushed (copyPart)
}

// pageCopy is the part of a page that exists once the node has held a copy
// of it: the bytes and everything kept about them. A collector flush drops
// the bytes and keeps the rest.
type pageCopy struct {
	// data is the node's private copy; nil only once a collector flush
	// has discarded it, until the home's whole page rebuilds it.
	data []byte

	// twin is a snapshot of data taken at the first write of an interval,
	// used to compute the interval's diff (multiple-writer protocol). It
	// exists only while the page is dirty in the open interval: closing
	// the interval encodes the diff and frees the twin.
	twin []byte

	// unpaid lists the node's own closed intervals whose diff of this page
	// the modelled node has not encoded yet: it "keeps the twin", which
	// the metadata gauge counts at PageSize, and pays one encode the first
	// time the diff is served, forwarded on a grant or forced by an
	// invalidation (payLocked) — never, if the collector retires the
	// interval first (freeRetiredLocked). Ordered by interval seq.
	unpaid []*interval

	// seenVC is the merge of the vector clocks of every interval this
	// node has ever observed touching the page (remote write notices and
	// its own write intervals). It enables the diff-squash fallback: if a
	// missing interval M satisfies seenVC ≤ M.vc, then M's creator has
	// observed — and its current page content reflects — every
	// modification this node knows about, so one whole-page transfer can
	// stand in for the entire accumulated diff chain.
	// A page with no copy part still has every notice it got in missing
	// (zeroFillLocked), so their merge is its seenVC; keepSeenLocked folds
	// them in once the copy part exists (zero fill, whole-page install,
	// flush).
	seenVC VectorClock

	// appliedVC is the merge of the vector clocks of every interval whose
	// content is BAKED INTO the local copy beyond what the page's home can
	// reproduce: the node's own closed write intervals and every remote
	// diff applied here (fault or GC validation). Unlike seenVC it excludes
	// notices still waiting in `missing` — those survive a flush as the
	// kept tail and are re-applied over the rebuilt base. A GC flush may
	// discard the copy only when the home's guaranteed floor covers
	// appliedVC: baked-in content has no notice left to re-deliver it, so
	// the home's copy is the only other place it can live. Reset to nil
	// when the copy is discarded (a fresh home fetch re-bases the page) —
	// home copies only move forward, so home-derived bytes are always
	// re-obtainable and never need tracking.
	appliedVC VectorClock

	// lastOwnSeq is the sequence number of the owning node's latest
	// closed interval that wrote this page, -1 if it never wrote it. A GC
	// purge may flush the copy only when the retire floor covers it: the
	// local copy is the only place the node's own writes live (its own
	// write notices are never in `missing`), so discarding a copy with
	// uncovered own writes would lose them — an episode's floor covers
	// everything the node wrote before it, but a consensus floor may trail
	// the node's own recent intervals.
	lastOwnSeq int

	// inDirty notes membership in the node's open-interval dirty list.
	inDirty bool
}

// copyPart returns the page's copy part, allocating it — no bytes yet, no
// own writes — on first need: the one constructor of a copy part.
func (pg *page) copyPart() *pageCopy {
	if pg.pageCopy == nil {
		pg.pageCopy = &pageCopy{lastOwnSeq: -1}
	}
	return pg.pageCopy
}

// holds reports whether the node has the page's bytes.
func (pg *page) holds() bool { return pg.pageCopy != nil && pg.data != nil }

// seenCheck sees every clock merged into a seenVC and every squash test,
// so a test can hold the lazy seenVC to an eager one (nil in real runs).
type seenCheck interface {
	merged(n *Node, pg *page, vc VectorClock)
	decided(n *Node, pg *page, vc VectorClock, dominated bool)
}

// makeDiff computes the word-granularity (4-byte) delta between data and
// twin, two whole pages, encoded as runs of [uv gap][uv length][bytes]:
// the gap from the previous run's end and the run's length are LEB128
// varints counted in words, so a run header is usually 2 bytes and no diff
// exceeds PageSize+3 (one whole-page run). The 4-byte word size matches
// real TreadMarks and is load-bearing for correctness: two nodes may
// concurrently write ADJACENT 4-byte values of one page (QSORT subarray
// boundaries land on arbitrary int32 indices), and a coarser diff word —
// or a run merged across an unchanged word — would capture the
// neighbour's stale value and lose one of the two writes when the diffs
// merge.
//
// The runs are encoded into scratch, which is returned grown for the next
// call, and copied out once into a buffer of p (nil when nothing differs),
// since it is retained until collected (freeRetiredLocked releases it).
func makeDiff(p *bufPool, data, twin, scratch []byte) (diff, grown []byte) {
	if grown = appendRuns(scratch[:0], data, twin); len(grown) > 0 {
		diff = p.clone(grown)
	}
	return diff, grown
}

// appendRuns appends to dst the runs of data against base: makeDiff's encoding.
func appendRuns(dst, data, base []byte) []byte {
	n := len(data)
	i, prev := 0, 0
	for i < n {
		// Find the next differing word, first two equal words at a time.
		for i+8 <= n && binary.LittleEndian.Uint64(data[i:]) == binary.LittleEndian.Uint64(base[i:]) {
			i += 8
		}
		for i < n && wordEq(data, base, i) {
			i += 4
		}
		if i >= n {
			break
		}
		start := i
		for i+8 <= n && wordsDiffer(data, base, i) {
			i += 8
		}
		for i < n && !wordEq(data, base, i) {
			i += 4
		}
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(start-prev)/4), uint64(i-start)/4)
		dst = append(dst, data[start:i]...)
		prev = i
	}
	return dst
}

// zeroPage is every page's allocation contents: a whole page's runs base.
var zeroPage [PageSize]byte

// putPage writes a whole page as a reply item: its runs against zeroPage
// when shorter than the page, else the raw page, so an item of exactly
// PageSize bytes is raw.
func (w *wbuf) putPage(data []byte) {
	var runs [PageSize + 3]byte
	item := appendRuns(runs[:0], data, zeroPage[:])
	if len(item) >= PageSize {
		item = data
	}
	w.bytes(item)
}

// wholePage writes the page a whole-page reply item carries into data, and
// returns the bytes its runs wrote over zeros (applyDiff validates every run).
func wholePage(data, item []byte) (applied int) {
	if len(item) == PageSize {
		copy(data, item)
		return 0
	}
	clear(data)
	return applyDiff(data, item)
}

// wordsDiffer reports whether the words at i and i+4 both differ.
func wordsDiffer(a, b []byte, i int) bool {
	x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
	return uint32(x) != 0 && x>>32 != 0
}

func wordEq(a, b []byte, i int) bool {
	return binary.LittleEndian.Uint32(a[i:]) == binary.LittleEndian.Uint32(b[i:])
}

// applyDiff writes the runs of an encoded diff into data and returns the
// number of payload bytes applied. Diffs cross the wire, so each run is
// checked before it is copied: an empty run or one past the page raises
// wireError, as a malformed varint or a truncated run does.
func applyDiff(data, diff []byte) int { return applyRuns(data, diff, nil) }

// applyRuns is applyDiff that also marks, in wrote when it is not nil,
// every word a run writes.
func applyRuns(data, diff []byte, wrote []bool) int {
	r := rbuf{b: diff}
	off, applied := 0, 0
	for !r.done() {
		off += 4 * r.uvi()
		n := 4 * r.uvi()
		if n == 0 || off+n > len(data) {
			panic(wireErrf("dsm: diff run of %d bytes at offset %d outside a %d-byte page", n, off, len(data)))
		}
		copy(data[off:], r.need(n))
		for w := off / 4; wrote != nil && w < (off+n)/4; w++ {
			wrote[w] = true
		}
		off += n
		applied += n
	}
	return applied
}

// mergeDiffs appends to dst one diff equal to applying diffs in order:
// every word any of them wrote, at the value the last one gave it. A
// merged run, like one of makeDiff's, covers only written words: a word no
// diff wrote may hold a concurrent writer's value on the requester. The
// result is never longer than the diffs together, nor than PageSize+3.
func mergeDiffs(dst []byte, diffs [][]byte) []byte {
	var img [PageSize]byte
	var wrote [PageSize / 4]bool
	for _, d := range diffs {
		applyRuns(img[:], d, wrote[:])
	}
	w := wbuf{b: dst}
	for i, prev := 0, 0; i < len(wrote); i++ {
		if !wrote[i] {
			continue
		}
		start := i
		for i < len(wrote) && wrote[i] {
			i++
		}
		w.uv(uint64(start - prev))
		w.uv(uint64(i - start))
		w.raw(img[4*start : 4*i])
		prev = i
	}
	return w.b
}
