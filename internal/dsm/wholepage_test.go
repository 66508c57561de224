package dsm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// wholePageShapes are the page contents the whole-page encoding must carry
// byte for byte: its extremes (no nonzero word, no zero word), one word,
// the worst case for run headers (every other word zero) and random
// sparse pages between them.
var wholePageShapes = []struct {
	name string
	page func(rnd *rand.Rand) []byte
}{
	{"zeros", func(*rand.Rand) []byte { return make([]byte, PageSize) }},
	{"one word", func(rnd *rand.Rand) []byte {
		p := make([]byte, PageSize)
		binary.LittleEndian.PutUint32(p[4*rnd.Intn(PageSize/4):], rnd.Uint32()|1)
		return p
	}},
	{"alternating", func(rnd *rand.Rand) []byte {
		p := make([]byte, PageSize)
		for w := rnd.Intn(2); w < PageSize/4; w += 2 {
			binary.LittleEndian.PutUint32(p[4*w:], rnd.Uint32()|1)
		}
		return p
	}},
	{"dense", func(rnd *rand.Rand) []byte {
		p := make([]byte, PageSize)
		for w := 0; w < PageSize/4; w++ {
			binary.LittleEndian.PutUint32(p[4*w:], rnd.Uint32()|1)
		}
		return p
	}},
	{"sparse", func(rnd *rand.Rand) []byte {
		p := make([]byte, PageSize)
		for k := rnd.Intn(PageSize / 4); k > 0; k-- {
			binary.LittleEndian.PutUint32(p[4*rnd.Intn(PageSize/4):], rnd.Uint32())
		}
		return p
	}},
}

// randPage returns a page of one of wholePageShapes, picked at random.
func randPage(rnd *rand.Rand) []byte {
	return wholePageShapes[rnd.Intn(len(wholePageShapes))].page(rnd)
}

// TestWholePageRoundTrip: a page the server writes into a reply (putPage)
// is the page the requester installs (wholePage), byte for byte, and the
// item is raw exactly when the page's runs against zeros would be at least
// PageSize bytes — otherwise it is those runs.
func TestWholePageRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	for _, shape := range wholePageShapes {
		for i := 0; i < 50; i++ {
			page := shape.page(rnd)
			runs := appendRuns(nil, page, zeroPage[:])
			var w wbuf
			w.putPage(page)
			r := rbuf{b: w.b}
			item := r.view()
			if !r.done() {
				t.Fatalf("%s: putPage left %d bytes behind its item", shape.name, r.remaining())
			}
			switch raw := len(runs) >= PageSize; {
			case raw && !bytes.Equal(item, page):
				t.Fatalf("%s: runs of %d bytes, but the item is not the raw page", shape.name, len(runs))
			case !raw && !bytes.Equal(item, runs):
				t.Fatalf("%s: runs of %d bytes, but the item is %d other bytes", shape.name, len(runs), len(item))
			}
			got := make([]byte, PageSize)
			wholePage(got, item)
			if !bytes.Equal(got, page) {
				t.Fatalf("%s: the installed page differs from the served one", shape.name)
			}
		}
	}
}

// TestWholePageMalformedItems: a reply's whole-page item that is longer
// than a page, or whose runs reach past the page, ends as a wire error —
// the first when the reply decodes, the second when the page is installed.
func TestWholePageMalformedItems(t *testing.T) {
	for name, reply := range wholePageMalformed() {
		func() {
			defer func() {
				if _, ok := recover().(wireError); !ok {
					t.Errorf("%s: the reply did not end as a wire error", name)
				}
			}()
			r := rbuf{b: reply}
			for _, it := range decodeFetch(&r, true) {
				wholePage(make([]byte, PageSize), it.data)
			}
		}()
	}
}

// wholePageMalformed returns fetch replies of one whole-page item each that
// the requester must refuse.
func wholePageMalformed() map[string][]byte {
	reply := func(data []byte) []byte {
		var w wbuf
		w.uv(1)
		w.uv(3) // page 3
		w.uv(0) // whole page
		w.bytes(data)
		return w.b
	}
	var past wbuf // a run of two words starting at the page's last word
	past.uv(PageSize/4 - 1)
	past.uv(2)
	past.b = append(past.b, 1, 2, 3, 4, 5, 6, 7, 8)
	return map[string][]byte{
		"run past the page":   reply(past.b),
		"PageSize+1 bytes":    reply(make([]byte, PageSize+1)),
		"a run of zero words": reply([]byte{1, 0}),
	}
}

// zeroedWords is a page image: words [0, 64) hold nonzero values before
// the rewrite, and after it only words [64, 96) do — the rest are zeros the
// rewrite put over nonzero words, and a runs item does not carry them.
func zeroedWords(rewritten bool) []byte {
	p := make([]byte, PageSize)
	lo, hi := 0, 64
	if rewritten {
		lo, hi = 64, 96
	}
	for w := lo; w < hi; w++ {
		binary.LittleEndian.PutUint32(p[4*w:], uint32(1000+w))
	}
	return p
}

// rewritePage writes the rewritten image over the first: it zeroes words
// [0, 64) and fills [64, 96).
func rewritePage(n *Node, a Addr) {
	n.WriteBytes(a, zeroedWords(true)[:96*4])
}

// TestWholePageSquashOverStaleCopy: a squash replaces a copy the requester
// holds with the creator's page, and when that page crosses as runs the
// requester builds it on fresh zeros — a word the creator zeroed must not
// keep the requester's stale value. On three nodes (node 0 homes the page
// and stays out of it) node 2 reads node 1's page, then node 1 rewrites it
// over four intervals, the last zeroing every word node 2 holds nonzero.
// Node 2's next read squashes the four notices into one page from node 1,
// and reads zeros there under the shadow-memory oracle.
func TestWholePageSquashOverStaleCopy(t *testing.T) {
	SetDebugOracle(true)
	defer SetDebugOracle(false)
	sys := New(Config{Procs: 3})
	a := sys.MallocPage(PageSize)
	pid := PageID(int(a) / PageSize)
	var repBytes int64
	sys.Register("squash", func(n *Node, _ []byte) {
		if n.ID() == 1 {
			n.WriteBytes(a, zeroedWords(false))
		}
		n.Barrier()
		if n.ID() == 2 {
			n.ReadBytes(a, make([]byte, PageSize))
		}
		n.Barrier()
		for r := 0; r < 4; r++ {
			if n.ID() == 1 {
				if r < 3 {
					n.WriteI64(a+Addr(1024+8*r), int64(r+1))
					n.WriteI64(a+Addr(1024+8*r), 0)
				} else {
					rewritePage(n, a)
				}
			}
			n.Barrier()
		}
		if n.ID() != 2 {
			return
		}
		n.mu.Lock()
		pg := n.pageFor(pid)
		if pg.data == nil || len(pg.missing) != 4 {
			t.Errorf("test premise: want a held copy owing four notices; have data=%v missing=%d", pg.data != nil, len(pg.missing))
		}
		n.mu.Unlock()
		before := n.Stats()
		_, b0 := n.sys.Switch().Stats().ByType(msgFetchRep)
		got := make([]byte, PageSize)
		n.ReadBytes(a, got)
		_, b1 := n.sys.Switch().Stats().ByType(msgFetchRep)
		repBytes = b1 - b0
		if st := n.Stats(); st.PageFetches-before.PageFetches != 1 || st.DiffsApplied != before.DiffsApplied {
			t.Errorf("the read fetched %d whole pages and applied %d diffs, want one squashed page",
				st.PageFetches-before.PageFetches, st.DiffsApplied-before.DiffsApplied)
		}
		if !bytes.Equal(got, zeroedWords(true)) {
			t.Error("the squashed copy is not the creator's page")
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("squash", nil) }); err != nil {
		t.Fatal(err)
	}
	if d := OracleDiverges(); d != 0 {
		t.Errorf("%d reads diverged from the shadow memory", d)
	}
	if repBytes >= PageSize {
		t.Errorf("the squash's reply is %d bytes: the page did not cross as runs", repBytes)
	}
}

// TestWholePageRefetchAfterFlush: a copy the collector flushed is rebuilt
// from its home's page on a zero base. Node 2 reads node 1's page; node 1
// zeroes the words node 2 read and writes others; collecting at every
// episode, the barrier validates the home's copy and flushes node 2's.
// Node 2's read refetches the home's page, which crosses as runs, and reads
// the zeros under the shadow-memory oracle.
func TestWholePageRefetchAfterFlush(t *testing.T) {
	SetDebugOracle(true)
	defer SetDebugOracle(false)
	sys := New(Config{Procs: 3, GCPressure: 1})
	a := sys.MallocPage(PageSize)
	pid := PageID(int(a) / PageSize)
	var repBytes int64
	sys.Register("refetch", func(n *Node, _ []byte) {
		if n.ID() == 1 {
			n.WriteBytes(a, zeroedWords(false))
		}
		n.Barrier()
		if n.ID() == 2 {
			n.ReadBytes(a, make([]byte, PageSize))
		}
		n.Barrier()
		if n.ID() == 1 {
			rewritePage(n, a)
		}
		n.Barrier()
		n.Barrier()
		if n.ID() != 2 {
			return
		}
		n.mu.Lock()
		pg := n.pageFor(pid)
		if pg.data != nil || !pg.refetch {
			t.Errorf("test premise: want a flushed copy; have data=%v refetch=%v", pg.data != nil, pg.refetch)
		}
		n.mu.Unlock()
		before := n.Stats()
		_, b0 := n.sys.Switch().Stats().ByType(msgFetchRep)
		got := make([]byte, PageSize)
		n.ReadBytes(a, got)
		_, b1 := n.sys.Switch().Stats().ByType(msgFetchRep)
		repBytes = b1 - b0
		if st := n.Stats(); st.PageFetches-before.PageFetches != 1 {
			t.Errorf("the read fetched %d whole pages, want the home's", st.PageFetches-before.PageFetches)
		}
		if !bytes.Equal(got, zeroedWords(true)) {
			t.Error("the rebuilt copy is not the home's page")
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("refetch", nil) }); err != nil {
		t.Fatal(err)
	}
	if d := OracleDiverges(); d != 0 {
		t.Errorf("%d reads diverged from the shadow memory", d)
	}
	if g := sys.GCSummary(); g.PagesFlushed == 0 {
		t.Error("test premise: the collector flushed nothing")
	}
	if repBytes >= PageSize {
		t.Errorf("the refetch's reply is %d bytes: the page did not cross as runs", repBytes)
	}
}

// BenchmarkServeWholePage is the server's side of a whole-page reply: the
// page's runs against zeros sized on the stack, then one item encoded into
// a reply buffer of that size, as handleFetchReq does: as runs or, on a
// dense page, raw. The reply buffer is the one allocation: the runs are
// written straight into it.
func BenchmarkServeWholePage(b *testing.B) {
	sparse := make([]byte, PageSize)
	for w := 0; w < PageSize/4; w += 16 {
		binary.LittleEndian.PutUint32(sparse[4*w:], uint32(w+1))
	}
	for _, c := range []struct {
		name string
		page []byte
	}{{"dense", densePage()}, {"sparse", sparse}, {"zeros", make([]byte, PageSize)}} {
		b.Run(c.name, func(b *testing.B) {
			items := []fetchItem{{pid: 3, seq: -1, data: c.page}}
			var w wbuf
			var runs [PageSize + 3]byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				size := 5 + 3 + 14 + min(PageSize, len(appendRuns(runs[:0], c.page, zeroPage[:])))
				w = wbuf{b: make([]byte, 0, size)}
				encodeFetch(&w, items, true)
			}
			b.ReportMetric(float64(len(w.b)), "B/reply")
		})
	}
}
