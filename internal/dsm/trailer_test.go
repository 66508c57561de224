package dsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------------
// Store-backed trailer decode (decodeRecordsLocked): a record the receiver
// already keeps decodes to what it keeps, a new one exactly as the
// store-less decodeRecords decodes it.
// ---------------------------------------------------------------------

// randStore builds a receiver for a batch: node id `me` of procs nodes,
// whose per-creator store starts at a random base near the batch's
// sequence numbers and holds a random number of records from there — so a
// batch slot lands below the base (retired), inside the store (held), at
// the receiver's own creator, or past the store (new).
func randStore(rnd *rand.Rand, procs, me int, recs []*interval) *Node {
	n := &Node{id: me, intervals: make([][]*interval, procs), ivlBase: make([]int, procs)}
	for c := range n.intervals {
		near := 0
		for _, ivl := range recs {
			if ivl.creator == c {
				near = ivl.seq
				break
			}
		}
		n.ivlBase[c] = max(0, near-2+rnd.Intn(5))
		for s := 0; s < rnd.Intn(5); s++ {
			n.intervals[c] = append(n.intervals[c], &interval{creator: c, seq: n.ivlBase[c] + s})
		}
	}
	return n
}

// TestStoreDecodeMatchesDecodeRecords: over random batches and random
// receiver stores, every slot the store lacks decodes deep-equal to
// decodeRecords, every held slot is the stored record itself, and every
// retired or own slot carries the record's (creator, seq). The two decodes
// consume the same bytes.
func TestStoreDecodeMatchesDecodeRecords(t *testing.T) {
	var kinds [4]int // new, held, retired, own
	prop := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		procs := rnd.Intn(16) + 1
		recs := randRecords(rnd, procs, rnd.Intn(12))
		n := randStore(rnd, procs, rnd.Intn(procs), recs)
		var w wbuf
		encodeRecords(&w, recs)
		plain, store := rbuf{b: w.b}, rbuf{b: w.b}
		want, got := decodeRecords(&plain), n.decodeRecordsLocked(&store)
		if plain.off != store.off || len(got) != len(want) {
			return false
		}
		for k, g := range got {
			ivl := want[k]
			idx := ivl.seq - n.ivlBase[ivl.creator]
			have := n.intervals[ivl.creator]
			kind := 0
			switch {
			case idx >= 0 && idx < len(have):
				kind = 1
			case idx < 0:
				kind = 2
			case ivl.creator == n.id:
				kind = 3
			}
			kinds[kind]++
			switch kind {
			case 1:
				if g != have[idx] {
					t.Logf("seed %d slot %d: held (%d,%d) is not the stored record", seed, k, ivl.creator, ivl.seq)
					return false
				}
			case 2, 3:
				if g.creator != ivl.creator || g.seq != ivl.seq {
					t.Logf("seed %d slot %d: stand-in (%d,%d), want (%d,%d)", seed, k, g.creator, g.seq, ivl.creator, ivl.seq)
					return false
				}
			default:
				if !reflect.DeepEqual(g, ivl) {
					t.Logf("seed %d slot %d: new record %+v, want %+v", seed, k, g, ivl)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"new", "held", "retired", "own"} {
		if kinds[i] == 0 {
			t.Errorf("no %s slot was ever decoded: the property went unexercised there", name)
		}
	}
}

// TestTrailerPooledEncodeIdentical: a trailer encoded in place into a
// pooled wbuf — starting from a one-byte buffer behind any payload prefix,
// so it regrows through the pool's classes — is byte-identical to one
// encoded by plain appends, and every buffer it outgrew went back to the
// pool, poisoned.
func TestTrailerPooledEncodeIdentical(t *testing.T) {
	var pool bufPool
	prop := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		procs := rnd.Intn(64) + 1
		recs := randRecords(rnd, procs, rnd.Intn(20))
		vc := newVC(procs)
		for i := range vc {
			vc[i] = int32(rnd.Intn(1 << 16))
		}
		prefix := make([]byte, rnd.Intn(12))
		rnd.Read(prefix)
		plain := wbuf{b: bytes.Clone(prefix)}
		pooled := wbuf{b: pool.get(1)[:0], pool: &pool}
		pooled.raw(prefix)
		putTrailer(&plain, vc, recs)
		putTrailer(&pooled, vc, recs)
		if !bytes.Equal(plain.b, pooled.b) {
			return false
		}
		for i := range pool {
			for _, f := range pool[i].free {
				if &f[:1][0] == &pooled.b[:1][0] || slices.ContainsFunc(f[:cap(f)], func(b byte) bool { return b != poisonByte }) {
					return false
				}
			}
		}
		pool.put(pooled.b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fuzzStore is the receiver FuzzWireStoreDecode decodes against: node 2 of
// six, each creator's store based at its id and holding three records.
func fuzzStore() *Node {
	n := &Node{id: 2, intervals: make([][]*interval, 6), ivlBase: make([]int, 6)}
	for c := range n.intervals {
		n.ivlBase[c] = c
		for s := 0; s < 3; s++ {
			n.intervals[c] = append(n.intervals[c], &interval{creator: c, seq: c + s})
		}
	}
	return n
}

// FuzzWireStoreDecode: decoding a trailer against a receiver's store panics
// exactly when the store-less decode panics, and only with wireError.
func FuzzWireStoreDecode(f *testing.F) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		var w wbuf
		putTrailer(&w, VectorClock{3, 1, 4, 1, 5, 9}, randRecords(rnd, 6, 1+i))
		f.Add(w.b)
	}
	n := fuzzStore()
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(store bool) (e any) {
			defer func() { e = recover() }()
			r := rbuf{b: data}
			getVC(&r, nil)
			if store {
				n.decodeRecordsLocked(&r)
			} else {
				decodeRecords(&r)
			}
			return nil
		}
		plain, store := decode(false), decode(true)
		for _, e := range []any{plain, store} {
			if _, ok := e.(wireError); e != nil && !ok {
				t.Fatalf("non-wireError panic: %v", e)
			}
		}
		if (plain == nil) != (store == nil) {
			t.Fatalf("store-less decode panicked %v, store-backed %v", plain, store)
		}
	})
}

// ---------------------------------------------------------------------
// Allocation guards.
// ---------------------------------------------------------------------

// departureBatch is a 64-node barrier departure's records: two intervals
// of every creator, each naming a run of four pages and a stray one, and a
// receiver (node 0) that holds every one of them when held is set.
func departureBatch(held bool) (*Node, []*interval) {
	const procs = 64
	n := &Node{id: 0, intervals: make([][]*interval, procs), ivlBase: make([]int, procs)}
	var recs []*interval
	vc := newVC(procs)
	for s := 0; s < 2; s++ {
		for c := 0; c < procs; c++ {
			vc[c]++
			pages := []PageID{PageID(8 * c), PageID(8*c + 1), PageID(8*c + 2), PageID(8*c + 3), PageID(4096 + c)}
			ivl := &interval{creator: c, seq: s, vc: vc.clone(), pages: pages}
			recs = append(recs, ivl)
			if held {
				n.intervals[c] = append(n.intervals[c], ivl)
			}
		}
	}
	return n, recs
}

// TestHeldDepartureDecodeAllocs: a 64-node departure whose records the
// receiver all holds decodes in two allocations — the slot slice and the
// base clock — however many records it carries.
func TestHeldDepartureDecodeAllocs(t *testing.T) {
	n, recs := departureBatch(true)
	var w wbuf
	encodeRecords(&w, recs)
	allocs := testing.AllocsPerRun(50, func() {
		r := rbuf{b: w.b}
		n.decodeRecordsLocked(&r)
	})
	if allocs > 2 {
		t.Errorf("decoding %d held records allocated %.0f times, want ≤ 2", len(recs), allocs)
	}
}

// TestNoticeWithoutCopyAllocatesNoClock: a write notice for a page this
// node holds no copy of allocates nothing (the page gets no copy part, so
// no seenVC: its history is its missing notices).
func TestNoticeWithoutCopyAllocatesNoClock(t *testing.T) {
	sys := New(Config{Procs: 2})
	defer sys.Close()
	n := sys.nodes[0]
	ivl := &interval{creator: 1, seq: 0, vc: VectorClock{0, 1}}
	n.mu.Lock()
	defer n.mu.Unlock()
	var pgs []*page
	for pid := range PageID(sys.heapPages()) {
		if len(pgs) < 101 && !n.isHome(pid) {
			pg := n.pageFor(pid)
			pg.missing = make([]*interval, 0, 1)
			pgs = append(pgs, pg)
		}
	}
	n.gcPages = make([]*page, 0, len(pgs))
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		n.invalidateLocked(pgs[i], ivl)
		i++
	})
	if allocs != 0 {
		t.Errorf("a notice on a page with no copy allocated %.0f times", allocs)
	}
	for _, pg := range pgs {
		if pg.pageCopy != nil || len(pg.missing) != 1 {
			t.Fatalf("page %d: copy part %v, %d missing after one notice", pg.id, pg.pageCopy, len(pg.missing))
		}
	}
}

// ---------------------------------------------------------------------
// The lazy seenVC against an eagerly kept one.
// ---------------------------------------------------------------------

// eagerSeen keeps every page's seenVC the way it was kept before the lazy
// rule — every merged clock, on every page — and checks each squash test
// the lazy rule decides against it.
type eagerSeen struct {
	mu        sync.Mutex
	seen      map[[2]int]VectorClock // (node, page) → eager seenVC
	decisions int                    // squash tests decided
	noCopy    int                    // … on pages with no copy, from missing alone
	bad       []string
}

func (e *eagerSeen) merged(n *Node, pg *page, vc VectorClock) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := [2]int{n.id, int(pg.id)}
	if e.seen[k] == nil {
		e.seen[k] = newVC(len(vc))
	}
	e.seen[k].merge(vc)
}

func (e *eagerSeen) decided(n *Node, pg *page, vc VectorClock, dominated bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.decisions++
	if pg.pageCopy == nil {
		e.noCopy++
	}
	eager := e.seen[[2]int{n.id, int(pg.id)}]
	if want := eager != nil && eager.dominatedBy(vc); want != dominated {
		e.bad = append(e.bad, fmt.Sprintf("node %d page %d: squash test against %v decided %v, eager seenVC %v says %v",
			n.id, pg.id, vc, dominated, eager, want))
	}
}

// final checks, once the system is done, that every page that left the
// no-copy state keeps exactly the eager clock and every page still in it
// keeps none.
func (e *eagerSeen) final(sys *System) {
	for _, n := range sys.nodes {
		for _, pg := range n.pages {
			if pg == nil {
				continue
			}
			eager := e.seen[[2]int{n.id, int(pg.id)}]
			if pg.pageCopy == nil {
				continue // no copy part: no seenVC to keep
			}
			if !reflect.DeepEqual(pg.seenVC, eager) {
				e.bad = append(e.bad, fmt.Sprintf("node %d page %d: seenVC %v, eager %v", n.id, pg.id, pg.seenVC, eager))
			}
		}
	}
}

// TestLazySeenMatchesEager runs randomized lock/barrier programs at
// GCPressure 1 — sparse writers, so many notices land on pages a node has
// no copy of, and late readers, so such pages are zero-filled, squashed
// from a creator or flushed by the collector first — with an eagerly kept
// seenVC shadowing the lazy one: every squash test must decide the same,
// every page that left the no-copy state must end with the eager clock,
// and the contents must be exact.
func TestLazySeenMatchesEager(t *testing.T) {
	var decisions, noCopy, flushed int64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const P = 4
		pages := 3 + rng.Intn(6)
		words := pages * PageSize / 8
		rounds := 4 + rng.Intn(6)
		owner := make([][]int, rounds)    // [round][word]: writer, -1 for none
		reads := make([][][]bool, rounds) // [round][node][page]: read the page after the barrier
		want := make([]int64, words)
		for r := range owner {
			owner[r] = make([]int, words)
			hot := rng.Intn(pages) // most writes of a round land on one page
			for w := range owner[r] {
				owner[r][w] = -1
				if w/(PageSize/8) == hot && rng.Intn(8) == 0 || rng.Intn(200) == 0 {
					owner[r][w] = rng.Intn(P)
					want[w] = int64(r*1000 + owner[r][w]*10 + w%7)
				}
			}
			reads[r] = make([][]bool, P)
			for me := range reads[r] {
				reads[r][me] = make([]bool, pages)
				for pg := range reads[r][me] {
					reads[r][me][pg] = rng.Intn(6) == 0
				}
			}
		}
		e := &eagerSeen{seen: map[[2]int]VectorClock{}}
		sys := New(Config{Procs: P, GCPressure: 1})
		sys.seenCheck = e
		base := sys.MallocPage(8 * words)
		ctr := sys.MallocPage(8)
		sys.Register("plan", func(n *Node, _ []byte) {
			me := n.ID()
			for r := range owner {
				for w, o := range owner[r] {
					if o == me {
						n.WriteI64(base+Addr(8*w), int64(r*1000+o*10+w%7))
					}
				}
				n.Acquire(0)
				n.WriteI64(ctr, n.ReadI64(ctr)+1)
				n.Release(0)
				n.Barrier()
				for pg, ok := range reads[r][me] {
					if ok {
						n.ReadI64(base + Addr(pg*PageSize+8*((7*r+me)%(PageSize/8))))
					}
				}
				n.Barrier()
			}
		})
		got := make([]int64, words)
		var sum int64
		err := sys.Run(func(n *Node) {
			n.RunParallel("plan", nil)
			for w := range got {
				got[w] = n.ReadI64(base + Addr(8*w))
			}
			sum = n.ReadI64(ctr)
		})
		sys.Close()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		e.final(sys)
		if len(e.bad) > 0 {
			t.Logf("seed %d: %d mismatches, first: %s", seed, len(e.bad), e.bad[0])
			return false
		}
		if sum != int64(rounds*P) {
			t.Logf("seed %d: counter %d, want %d", seed, sum, rounds*P)
			return false
		}
		for w := range want {
			if got[w] != want[w] {
				t.Logf("seed %d: word %d = %d, want %d", seed, w, got[w], want[w])
				return false
			}
		}
		decisions += int64(e.decisions)
		noCopy += int64(e.noCopy)
		flushed += sys.TotalStats().GCPagesFlushed
		return true
	}
	max := 12
	if testing.Short() {
		max = 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
	if decisions == 0 || noCopy == 0 || flushed == 0 {
		t.Errorf("%d squash tests, %d on pages with no copy, %d pages flushed: the lazy rule went unexercised", decisions, noCopy, flushed)
	}
}

// ---------------------------------------------------------------------
// Per-layer benchmarks: a 64-node departure trailer.
// ---------------------------------------------------------------------

// BenchmarkTrailerDecode decodes a 64-node departure's 128 records against
// a receiver that holds none of them (fresh: every record gets its clock
// and page list) and one that holds them all (duplicate).
func BenchmarkTrailerDecode(b *testing.B) {
	for _, held := range []bool{false, true} {
		name := map[bool]string{false: "fresh", true: "duplicate"}[held]
		b.Run(name, func(b *testing.B) {
			n, recs := departureBatch(held)
			var w wbuf
			putTrailer(&w, newVC(64), recs)
			b.ReportAllocs()
			b.SetBytes(int64(len(w.b)))
			for i := 0; i < b.N; i++ {
				r := rbuf{b: w.b}
				getVC(&r, nil)
				n.decodeRecordsLocked(&r)
			}
		})
	}
}

// BenchmarkTrailerEncode encodes the same departure in place into a
// payload from a warm pool and releases it, as every trailer send and its
// receiver do.
func BenchmarkTrailerEncode(b *testing.B) {
	_, recs := departureBatch(false)
	vc := newVC(64)
	var pool bufPool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := wbuf{pool: &pool}
		putTrailer(&w, vc, recs)
		pool.put(w.b)
	}
}
