package dsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/network"
)

// ---------------------------------------------------------------------
// Round-trip properties (testing/quick): encode→decode is the identity
// for every wire element, in both versions.
// ---------------------------------------------------------------------

// randRecords builds a batch of interval records over a procs-node clock
// that respects the protocol invariant vc[creator] == seq+1 (the
// encoding omits seq and re-derives it from the clock, so only invariant-
// respecting records exist on a healthy wire). Page lists are ascending
// and duplicate-free, mixing dense runs with isolated ids.
func randRecords(rnd *rand.Rand, procs, count int) []*interval {
	out := make([]*interval, count)
	for k := range out {
		vc := newVC(procs)
		for i := range vc {
			vc[i] = int32(rnd.Intn(1 << rnd.Intn(20)))
		}
		creator := rnd.Intn(procs)
		if vc[creator] == 0 {
			vc[creator] = int32(rnd.Intn(1000) + 1)
		}
		var pages []PageID
		next := PageID(rnd.Intn(8))
		for len(pages) < rnd.Intn(40) {
			run := rnd.Intn(6) + 1
			for i := 0; i < run; i++ {
				pages = append(pages, next)
				next++
			}
			next += PageID(rnd.Intn(1000) + 1)
		}
		out[k] = &interval{creator: creator, seq: int(vc[creator]) - 1, vc: vc, pages: pages}
	}
	return out
}

// stripDiffs projects a record batch onto its wire-visible fields (diffs
// never travel in records) so decoded batches compare with DeepEqual.
func stripDiffs(ivls []*interval) []*interval {
	out := make([]*interval, len(ivls))
	for i, ivl := range ivls {
		pages := ivl.pages
		if pages == nil {
			pages = []PageID{}
		}
		out[i] = &interval{creator: ivl.creator, seq: ivl.seq, vc: ivl.vc, pages: pages}
	}
	return out
}

func TestWireVCRoundTrip(t *testing.T) {
	prop := func(xs []uint16) bool {
		v := make(VectorClock, len(xs))
		for i, x := range xs {
			v[i] = int32(x)
		}
		var w wbuf
		putVC(&w, v)
		r := rbuf{b: w.b}
		got := getVC(&r)
		if len(got) == 0 && len(v) == 0 {
			return r.done()
		}
		return reflect.DeepEqual(got, v) && r.done()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWirePageRunsRoundTrip(t *testing.T) {
	prop := func(gaps []uint8, lens []uint8) bool {
		var pages []PageID
		next := PageID(0)
		for i, g := range gaps {
			next += PageID(g)
			run := 1
			if i < len(lens) {
				run += int(lens[i]) % 7
			}
			for j := 0; j < run; j++ {
				pages = append(pages, next)
				next++
			}
			next++ // keep runs maximal: never adjacent
		}
		var w wbuf
		encodePageRuns(&w, pages)
		r := rbuf{b: w.b}
		got := decodePageRuns(&r, true)
		if len(pages) == 0 {
			return len(got) == 0 && r.done()
		}
		return reflect.DeepEqual(got, pages) && r.done()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWireRecordsRoundTrip drives random invariant-respecting batches
// through the trailer codec.
func TestWireRecordsRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		procs := rnd.Intn(16) + 1
		recs := randRecords(rnd, procs, rnd.Intn(12))
		vc := newVC(procs)
		for i := range vc {
			vc[i] = int32(rnd.Intn(1 << 16))
		}
		var w wbuf
		putTrailer(&w, nil, vc, recs)
		r := rbuf{b: w.b}
		gotVC, gotRecs := getTrailer(&r)
		if !r.done() || !reflect.DeepEqual(gotVC, vc) {
			return false
		}
		return reflect.DeepEqual(stripDiffs(gotRecs), stripDiffs(recs))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWireJoinTail: a join is the consistency trailer with the region's
// tail behind it. With no tail it is the bare trailer to the byte — a
// reduction-free program's joins are what they always were — and a tail
// comes back whole after the trailer is decoded.
func TestWireJoinTail(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	recs := randRecords(rnd, 8, 3)
	vc := VectorClock{2, 7, 1, 8, 2, 8, 1, 8}
	var bare, join wbuf
	putTrailer(&bare, nil, vc, recs)
	putJoin(&join, nil, vc, recs, nil)
	if !bytes.Equal(join.b, bare.b) {
		t.Fatalf("tail-less join %x differs from the bare trailer %x", join.b, bare.b)
	}
	r := rbuf{b: join.b}
	getTrailer(&r)
	if got := getJoinTail(&r); got != nil {
		t.Errorf("tail-less join decoded tail %x", got)
	}
	tail := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}
	join = wbuf{}
	putJoin(&join, nil, vc, recs, tail)
	r = rbuf{b: join.b}
	gotVC, gotRecs := getTrailer(&r)
	if got := getJoinTail(&r); !bytes.Equal(got, tail) || !r.done() {
		t.Errorf("join tail decoded as %x, want %x", got, tail)
	}
	if !reflect.DeepEqual(gotVC, vc) || !reflect.DeepEqual(stripDiffs(gotRecs), stripDiffs(recs)) {
		t.Error("a join's tail disturbed its trailer")
	}
}

// ---------------------------------------------------------------------
// Truncation: every strict prefix of a valid encoding must fail through
// the bounded wireError path — never a runtime fault, never a huge
// allocation sized from a corrupted count.
// ---------------------------------------------------------------------

// wantWireError runs fn expecting either success (ok true) or a panic of
// the decoder's own typed wireError; any other panic is a validation gap.
func wantWireError(t *testing.T, ctx string, fn func()) {
	t.Helper()
	defer func() {
		switch e := recover().(type) {
		case nil, wireError:
		default:
			t.Fatalf("%s: non-wireError panic: %v", ctx, e)
		}
	}()
	fn()
}

func TestWireTruncatedTrailer(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	recs := randRecords(rnd, 8, 5)
	vc := newVC(8)
	for i := range vc {
		vc[i] = int32(rnd.Intn(1 << 20))
	}
	var w wbuf
	putTrailer(&w, nil, vc, recs)
	for cut := 0; cut < len(w.b); cut++ {
		panicked := false
		func() {
			defer func() {
				switch e := recover().(type) {
				case wireError:
					panicked = true
				case nil:
				default:
					t.Fatalf("cut=%d: non-wireError panic: %v", cut, e)
				}
			}()
			r := rbuf{b: w.b[:cut]}
			getTrailer(&r)
		}()
		if !panicked {
			t.Fatalf("truncation at %d of %d decoded silently", cut, len(w.b))
		}
	}
}

// TestWireCorruptCountBounded pins the decode-before-validate fix
// directly: a frame whose count field claims far more elements than bytes
// remain must die in needCount, not in make().
func TestWireCorruptCountBounded(t *testing.T) {
	var w3 wbuf
	w3.u32(0x7fffffff) // byte-slice length (page contents, diff bodies)
	wantWireError(t, "bytes", func() {
		r := rbuf{b: w3.b}
		r.bytes()
	})
	var w4 wbuf
	w4.uv(0x7fffffff) // consensus relay count
	wantWireError(t, "relay count", func() {
		r := rbuf{b: w4.b}
		getRelay(&r, 64)
	})
}

// randFetchItems builds a fetch exchange's item list: whole pages (seq -1)
// mixed with diffs, carrying content when reply is set.
func randFetchItems(rnd *rand.Rand, count int, reply bool) []fetchItem {
	items := make([]fetchItem, count)
	for i := range items {
		items[i] = fetchItem{pid: PageID(rnd.Intn(1 << 20)), seq: rnd.Intn(1<<16) - 1}
		if rnd.Intn(3) == 0 {
			items[i].seq = -1
		}
		switch {
		case reply && items[i].seq < 0:
			items[i].data = randPage(rnd)
		case reply:
			items[i].data = make([]byte, rnd.Intn(64))
			rnd.Read(items[i].data)
		}
	}
	return items
}

// TestWireFetchRoundTrip drives random item lists through both shapes of
// the fetch codec: the request (ids only, at most HomeBlockPages of them)
// and the reply (ids plus contents, decoded as views).
func TestWireFetchRoundTrip(t *testing.T) {
	prop := func(seed int64, reply bool) bool {
		rnd := rand.New(rand.NewSource(seed))
		items := randFetchItems(rnd, rnd.Intn(HomeBlockPages+1), reply)
		var w wbuf
		encodeFetch(&w, items, reply)
		r := rbuf{b: w.b}
		got := decodeFetch(&r, reply)
		if !r.done() || len(got) != len(items) {
			return false
		}
		for i, it := range items {
			data := got[i].data
			if reply && it.seq < 0 {
				data = make([]byte, PageSize)
				wholePage(data, got[i].data)
			}
			if got[i].pid != it.pid || got[i].seq != it.seq || !bytes.Equal(data, it.data) {
				return false
			}
			if reply && cap(got[i].data) != len(got[i].data) {
				return false // a view must not be able to grow into its neighbour
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWireTruncatedFetch: every strict prefix of a valid request or reply
// dies in the bounded wireError path, and a corrupted item count dies in
// needCount before anything is allocated.
func TestWireTruncatedFetch(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for _, reply := range []bool{false, true} {
		var w wbuf
		encodeFetch(&w, randFetchItems(rnd, HomeBlockPages, reply), reply)
		for cut := 0; cut < len(w.b); cut++ {
			panicked := false
			func() {
				defer func() {
					switch e := recover().(type) {
					case wireError:
						panicked = true
					case nil:
					default:
						t.Fatalf("reply=%v cut=%d: non-wireError panic: %v", reply, cut, e)
					}
				}()
				r := rbuf{b: w.b[:cut]}
				decodeFetch(&r, reply)
			}()
			if !panicked {
				t.Fatalf("reply=%v: truncation at %d of %d decoded silently", reply, cut, len(w.b))
			}
		}
		var huge wbuf
		huge.uv(0x7fffffff)
		wantWireError(t, "fetch item count", func() {
			r := rbuf{b: huge.b}
			decodeFetch(&r, reply)
		})
	}
}

// oversizeFetchRequest encodes a well-formed request of one item more than
// the cap, its first item grouped when grouped is set.
func oversizeFetchRequest(grouped bool) []byte {
	items := randFetchItems(rand.New(rand.NewSource(19)), HomeBlockPages+1, false)
	if grouped {
		items[0] = fetchItem{pid: 1, seq: 4, later: []int{5, 9}}
	}
	var w wbuf
	encodeFetch(&w, items, false)
	return w.b
}

// TestWireFetchRejectsOversizeRequest: the HomeBlockPages cap on a request
// is the server's to enforce, not only the sender's to respect — a request
// naming one item too many is a malformed frame like any other, while a
// request at the cap and a reply of any length decode.
func TestWireFetchRejectsOversizeRequest(t *testing.T) {
	func() {
		defer func() {
			if _, ok := recover().(wireError); !ok {
				t.Error("a request of HomeBlockPages+1 items did not die in wireError")
			}
		}()
		r := rbuf{b: oversizeFetchRequest(false)}
		decodeFetch(&r, false)
	}()
	rnd := rand.New(rand.NewSource(19))
	for _, tt := range []struct {
		count int
		reply bool
	}{{HomeBlockPages, false}, {HomeBlockPages + 1, true}} {
		var w wbuf
		encodeFetch(&w, randFetchItems(rnd, tt.count, tt.reply), tt.reply)
		r := rbuf{b: w.b}
		if got := decodeFetch(&r, tt.reply); len(got) != tt.count {
			t.Errorf("reply=%v: decoded %d items, want %d", tt.reply, len(got), tt.count)
		}
	}
}

// groupFetchItems gives about half of a request's diff items later seqs of
// their creator: one to four, ascending.
func groupFetchItems(rnd *rand.Rand, items []fetchItem) []fetchItem {
	for i := range items {
		if items[i].seq < 0 || rnd.Intn(2) == 0 {
			continue
		}
		s := items[i].seq
		for k := 1 + rnd.Intn(4); k > 0; k-- {
			s += 1 + rnd.Intn(300)
			items[i].later = append(items[i].later, s)
		}
	}
	return items
}

// TestWireFetchGroupedRoundTrip: a request whose diff items carry later
// seqs decodes to the same groups, and a request with none is exactly as
// long as the count, pid and seq varints it held before requests could
// group.
func TestWireFetchGroupedRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		items := groupFetchItems(rnd, randFetchItems(rnd, rnd.Intn(HomeBlockPages+1), false))
		var w wbuf
		encodeFetch(&w, items, false)
		r := rbuf{b: w.b}
		got := decodeFetch(&r, false)
		if !r.done() || len(got) != len(items) {
			return false
		}
		for i, it := range items {
			if got[i].pid != it.pid || got[i].seq != it.seq || !slices.Equal(got[i].later, it.later) {
				return false
			}
		}
		for i := range items {
			items[i].later = nil
		}
		var plain, old wbuf
		encodeFetch(&plain, items, false)
		old.uv(uint64(len(items)))
		for _, it := range items {
			old.uv(uint64(it.pid))
			old.uv(uint64(it.seq + 1))
		}
		return len(plain.b) == len(old.b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWireFetchGroupedMalformed: every strict prefix of a grouped request
// dies in wireError, as do a group count larger than the bytes left, a
// later seq that does not ascend, and a grouped request over the cap.
func TestWireFetchGroupedMalformed(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	items := groupFetchItems(rnd, randFetchItems(rnd, HomeBlockPages, false))
	items[0] = fetchItem{pid: 3, seq: 5, later: []int{6}}
	var w wbuf
	encodeFetch(&w, items, false)
	cases := map[string][]byte{
		"group count past the bytes left": {2*1 + 1, 3, 6, 0x7f, 1},
		"later seq not after the first":   {2*1 + 1, 3, 6, 1, 0},
		"grouped count over the cap":      oversizeFetchRequest(true),
	}
	for cut := 0; cut < len(w.b); cut++ {
		cases[fmt.Sprintf("cut at %d of %d", cut, len(w.b))] = w.b[:cut]
	}
	for name, b := range cases {
		func() {
			defer func() {
				if _, ok := recover().(wireError); !ok {
					t.Errorf("%s: decoded without a wireError", name)
				}
			}()
			r := rbuf{b: b}
			decodeFetch(&r, false)
		}()
	}
}

// grantWithData encodes a lock grant carrying data: lock id, reply tag, the
// trailer of recs, then one diff per record for page 3 and one for page 40.
func grantWithData(recs []*interval) []byte {
	var w wbuf
	w.i32(5)
	w.u32(9)
	putTrailer(&w, nil, VectorClock{3, 1, 4, 1, 5, 9}, recs)
	var diffs []grantDiff
	for i := range recs {
		diffs = append(diffs, grantDiff{pid: 3, rec: i, data: []byte{0, 0, 0, 0, 4, 0, 0, 0, 1, 2, 3, byte(i)}})
	}
	diffs = append(diffs, grantDiff{pid: 40, rec: len(recs) - 1})
	putGrantData(&w, diffs)
	return w.b
}

// decodeGrant decodes a grant the way takeGrant does, for a 64-page heap.
func decodeGrant(b []byte) (VectorClock, []*interval, []grantDiff) {
	r := rbuf{b: b}
	r.i32()
	r.u32()
	vc, recs := getTrailer(&r)
	return vc, recs, getGrantData(&r, len(recs), 64)
}

// TestWireGrantData: a grant's diffs come back whole behind its trailer,
// and a grant without any is its trailer to the byte.
func TestWireGrantData(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(29)), 6, 3)
	_, gotRecs, diffs := decodeGrant(grantWithData(recs))
	if len(diffs) != len(recs)+1 || len(gotRecs) != len(recs) {
		t.Fatalf("decoded %d diffs over %d records, want %d over %d", len(diffs), len(gotRecs), len(recs)+1, len(recs))
	}
	for i, d := range diffs[:len(recs)] {
		if d.pid != 3 || d.rec != i || !bytes.Equal(d.data, []byte{0, 0, 0, 0, 4, 0, 0, 0, 1, 2, 3, byte(i)}) {
			t.Errorf("diff %d decoded as %+v", i, d)
		}
	}
	if last := diffs[len(recs)]; last.pid != 40 || last.rec != len(recs)-1 || len(last.data) != 0 {
		t.Errorf("empty diff decoded as %+v", last)
	}
	var bare, none wbuf
	putTrailer(&bare, nil, VectorClock{1, 2}, recs)
	putTrailer(&none, nil, VectorClock{1, 2}, recs)
	putGrantData(&none, nil)
	if !bytes.Equal(bare.b, none.b) {
		t.Error("a grant without data differs from its bare trailer")
	}
	r := rbuf{b: none.b}
	getTrailer(&r)
	if getGrantData(&r, len(recs), 64) != nil {
		t.Error("a bare trailer decoded grant data")
	}
}

// TestWireTruncatedGrant: every strict prefix of a grant with data dies in
// the bounded wireError path — except the cut right behind the trailer,
// which IS a grant without data — and a page id outside the heap or a
// record index outside the trailer is rejected before anything is looked
// up.
func TestWireTruncatedGrant(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(31)), 6, 3)
	full := grantWithData(recs)
	var head wbuf
	head.i32(5)
	head.u32(9)
	putTrailer(&head, nil, VectorClock{3, 1, 4, 1, 5, 9}, recs)
	for cut := 0; cut < len(full); cut++ {
		panicked := false
		var data []grantDiff
		func() {
			defer func() {
				switch e := recover().(type) {
				case wireError:
					panicked = true
				case nil:
				default:
					t.Fatalf("cut=%d: non-wireError panic: %v", cut, e)
				}
			}()
			_, _, data = decodeGrant(full[:cut])
		}()
		if !panicked && (cut != len(head.b) || data != nil) {
			t.Fatalf("truncation at %d of %d decoded silently", cut, len(full))
		}
	}
	for _, bad := range []grantDiff{{pid: 64}, {pid: 1, rec: len(recs)}} {
		w := wbuf{b: append([]byte(nil), head.b...)}
		putGrantData(&w, []grantDiff{bad})
		wantWireError(t, "grant diff out of range", func() {
			decodeGrant(w.b)
			t.Errorf("grant diff %+v decoded", bad)
		})
	}
}

// multiRunDiff is a valid diff of three runs: one word at the page start,
// 130 words (a 2-byte length) after a 1-word gap, and one word after a
// 200-word gap (a 2-byte gap). It returns the diff and the byte offsets at
// which its runs end.
func multiRunDiff() (diff []byte, ends []int) {
	twin := make([]byte, PageSize)
	data := bytes.Clone(twin)
	for _, w := range []int{0, 2, 131, 332} {
		data[4*w] = 0x5a
	}
	for w := 2; w < 2+130; w++ {
		data[4*w+1] = 0xa5
	}
	diff, _ = makeDiff(new(bufPool), data, twin, nil)
	r := rbuf{b: diff}
	for !r.done() {
		r.uv()
		r.need(4 * r.uvi())
		ends = append(ends, r.off)
	}
	return diff, ends
}

// TestWireTruncatedDiff: a diff is a wire payload, so every cut inside one
// of its runs — in a varint or in the run's bytes — dies in the bounded
// wireError path; a cut between runs is a valid shorter diff. A run that
// is empty, reaches past the page or has an overlong varint is rejected
// before anything is copied.
func TestWireTruncatedDiff(t *testing.T) {
	diff, ends := multiRunDiff()
	if len(ends) != 3 {
		t.Fatalf("test premise: %d runs, want 3", len(ends))
	}
	page := make([]byte, PageSize)
	for cut := 1; cut < len(diff); cut++ {
		if slices.Contains(ends, cut) {
			applyDiff(page, diff[:cut])
			continue
		}
		wantWireError(t, fmt.Sprintf("cut at %d of %d", cut, len(diff)), func() {
			applyDiff(page, diff[:cut])
			t.Errorf("truncation at %d of %d applied silently", cut, len(diff))
		})
	}
	for name, bad := range map[string][]byte{
		"empty run":        {0, 0},
		"past the page":    {0xff, 0x07, 2, 1, 2, 3, 4, 5, 6, 7, 8},
		"longer than page": {0, 0x81, 0x08},
		"overlong varint":  {0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		page := make([]byte, PageSize)
		wantWireError(t, name, func() {
			applyDiff(page, bad)
			t.Errorf("%s: applied silently", name)
		})
		if !bytes.Equal(page, make([]byte, PageSize)) {
			t.Errorf("%s: the rejected run was copied", name)
		}
	}
}

// ---------------------------------------------------------------------
// A consensus reverse delta advances knownVC as it is sent.
// ---------------------------------------------------------------------

// TestGCSyncDeliveredFrameAdvancesKnownVC: a consensus push to a node
// with an interval its pusher has not seen both delivers the reverse
// delta and records it.
func TestGCSyncDeliveredFrameAdvancesKnownVC(t *testing.T) {
	sys := New(Config{Procs: 2})
	defer sys.Close()
	n1 := sys.nodes[1]

	n1.mu.Lock()
	ivl := &interval{creator: 1, seq: 0, vc: VectorClock{0, 1}, pages: []PageID{0}}
	n1.vc[1] = 1
	n1.intervals[1] = append(n1.intervals[1], ivl)
	n1.mu.Unlock()

	var w wbuf
	putTrailer(&w, nil, newVC(2), nil)
	n1.handleGCSync(&network.Message{From: 0, To: 1, Type: msgGCSync, Payload: w.b})

	n1.mu.Lock()
	known := n1.knownVC[0].clone()
	reverse := n1.stats.GCSyncReverse
	n1.mu.Unlock()
	if known[1] != 1 {
		t.Errorf("knownVC[0] = %v after a delivered reverse frame, want [0 1]", known)
	}
	if reverse != 1 {
		t.Errorf("GCSyncReverse = %d after a delivered reverse frame, want 1", reverse)
	}
}

// ---------------------------------------------------------------------
// Fuzz: arbitrary bytes may only fail through wireError.
// ---------------------------------------------------------------------

// FuzzWireDecode feeds arbitrary bytes to every wire decoder (the join's
// trailer-then-tail and the lock grant's trailer-then-data among them). The
// contract under test: decoding never panics except via the typed
// wireError (the bounded short-message path) — any index fault or
// count-sized allocation blowup is a missing validation.
func FuzzWireDecode(f *testing.F) {
	// Seed with valid encodings of each shape so the fuzzer starts on the
	// deep paths rather than rediscovering the framing byte by byte.
	rnd := rand.New(rand.NewSource(1))
	recs := randRecords(rnd, 6, 4)
	vc := VectorClock{3, 1, 4, 1, 5, 9}
	var w wbuf
	putTrailer(&w, nil, vc, recs)
	f.Add(w.b)
	var v wbuf
	putVC(&v, vc)
	f.Add(v.b)
	// A tree-routed consensus push: the trailer, then its relay list.
	var pw0 wbuf
	putTrailer(&pw0, nil, vc, recs)
	putRelay(&pw0, []int{2, 5})
	f.Add(pw0.b)
	for _, reply := range []bool{false, true} {
		var fw wbuf
		encodeFetch(&fw, randFetchItems(rnd, HomeBlockPages, reply), reply)
		f.Add(fw.b)
	}
	f.Add(oversizeFetchRequest(false))
	for range 2 {
		var gw wbuf
		encodeFetch(&gw, groupFetchItems(rnd, randFetchItems(rnd, HomeBlockPages, false)), false)
		f.Add(gw.b)
	}
	f.Add(oversizeFetchRequest(true))
	f.Add([]byte{2*1 + 1, 3, 6, 0x7f, 1}) // a group count past the bytes left
	var jw wbuf
	putJoin(&jw, nil, vc, recs, []byte{0, 0x55, 1, 2, 3, 4, 5, 6, 7})
	f.Add(jw.b)
	f.Add(grantWithData(recs))
	diff, _ := multiRunDiff()
	f.Add(diff)
	// A whole page as runs, and the whole-page items a requester refuses.
	var pw wbuf
	encodeFetch(&pw, []fetchItem{{pid: 3, seq: -1, data: wordPage()}}, true)
	f.Add(pw.b)
	for _, bad := range wholePageMalformed() {
		f.Add(bad)
	}

	// One valid request of each synchronization type, and the same cut
	// one byte short.
	for _, typ := range syncReqTypes {
		req := syncReqBytes(typ, recs)
		f.Add(req)
		f.Add(req[:len(req)-1])
	}

	decoders := []func(b []byte){
		func(b []byte) {
			r := rbuf{b: b}
			getTrailer(&r)
		},
		func(b []byte) {
			r := rbuf{b: b}
			getVC(&r)
		},
		func(b []byte) {
			r := rbuf{b: b}
			getTrailer(&r)
			getJoinTail(&r)
		},
		func(b []byte) { decodeGrant(b) },
		func(b []byte) { applyDiff(make([]byte, PageSize), b) },
		func(b []byte) {
			r := rbuf{b: b}
			decodeFetch(&r, false)
		},
		func(b []byte) {
			r := rbuf{b: b}
			for _, it := range decodeFetch(&r, true) {
				if it.seq < 0 {
					wholePage(make([]byte, PageSize), it.data) // the install validates a page's runs
				}
			}
		},
		func(b []byte) {
			r := rbuf{b: b}
			getTrailer(&r)
			getRelay(&r, 6)
		},
	}
	for _, typ := range syncReqTypes {
		decoders = append(decoders, func(b []byte) { getSyncReqTrailer(b, typ) })
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, dec := range decoders {
			func() {
				defer func() {
					switch e := recover().(type) {
					case nil, wireError:
					default:
						t.Fatalf("decoder %d: non-wireError panic: %v", i, e)
					}
				}()
				dec(data)
			}()
		}
	})
}

// getTrailer decodes a consistency trailer with no receiver store.
func getTrailer(r *rbuf) (VectorClock, []*interval) {
	return getVC(r), decodeRecords(r)
}

// syncReqTypes are the request types of the manager round (syncLayouts).
var syncReqTypes = []int{msgAcqReq, msgAcqFwd, msgSemaSignal, msgSemaWait, msgCondWait, msgCondSignal, msgCondBroadcast, msgFlush}

// syncReqBytes encodes a request of type typ with every field set and,
// for a trailer body, the records recs.
func syncReqBytes(typ int, recs []*interval) []byte {
	q := syncReq{waiter: waiter{from: 2, tag: 7, vc: VectorClock{3, 1, 4}}, cond: 5, id: 9, recs: recs}
	var w wbuf
	putSyncReq(&w, nil, typ, &q)
	return w.b
}

// getSyncReqTrailer decodes a request of type typ as handleSyncReq does,
// a trailer body with no receiver store, and fails it, as the handler
// does, if bytes are left past its body.
func getSyncReqTrailer(b []byte, typ int) (syncReq, []*interval) {
	r := rbuf{b: b}
	q := getSyncReq(&r, typ, 2)
	var recs []*interval
	if syncLayouts[typ].trailer {
		q.vc, recs = getTrailer(&r)
	}
	if !r.done() {
		panic(wireErrf("dsm: %d bytes past a request of type %d", r.remaining(), typ))
	}
	return q, recs
}

// TestWireSyncReqRoundTrip: every request of the manager round decodes to
// the fields its layout carries, and every strict prefix of it fails as a
// short message.
func TestWireSyncReqRoundTrip(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(2)), 3, 3)
	for _, typ := range syncReqTypes {
		l := syncLayouts[typ]
		b := syncReqBytes(typ, recs)
		q, got := getSyncReqTrailer(b, typ)
		want := syncReq{waiter: waiter{from: 2}}
		if l.cond {
			want.cond = 5
		}
		if l.id {
			want.id = 9
		}
		if l.tag {
			want.tag = 7
		}
		if l.vc || l.trailer {
			want.vc = VectorClock{3, 1, 4}
		}
		if q.from != want.from || q.tag != want.tag || q.cond != want.cond || q.id != want.id || !slices.Equal(q.vc, want.vc) {
			t.Errorf("type %d: decoded %+v, want %+v", typ, q, want)
		}
		if l.trailer && len(got) != len(recs) {
			t.Errorf("type %d: %d trailer records, want %d", typ, len(got), len(recs))
		}
		for cut := range len(b) {
			func() {
				defer func() {
					if _, ok := recover().(wireError); !ok {
						t.Errorf("type %d cut to %d bytes: decoded without a wireError", typ, cut)
					}
				}()
				getSyncReqTrailer(b[:cut], typ)
			}()
		}
	}
}
