package dsm

import (
	"runtime"
	"sync"
	"testing"
)

// pageClass is the index of the size class twins and page copies come from.
func pageClass() int {
	idx, _, _ := sizeClass(PageSize)
	return idx
}

// TestBufPool: every pooled size rounds up to a class by less than 12.5 %,
// (PageSize, PageSize+3] to one class of its own; a miss allocates the
// class size; a released buffer comes back holding the poison; and a
// buffer whose capacity is not a class size is dropped, not pooled.
func TestBufPool(t *testing.T) {
	sizeOf := map[int]int{} // class index → its size
	for n := 1; n <= poolMax; n++ {
		idx, size, ok := sizeClass(n)
		switch {
		case !ok || idx < 0 || idx >= len(bufPool{}):
			t.Fatalf("size %d: class %d (ok %v) outside [0, %d)", n, idx, ok, len(bufPool{}))
		case size < n || 8*(size-n) >= n:
			t.Fatalf("size %d rounds to %d: more than 12.5 %%", n, size)
		case n > PageSize && n <= PageSize+3 && size != PageSize+3:
			t.Fatalf("size %d rounds to %d, want the full-page diff class %d", n, size, PageSize+3)
		}
		if s, seen := sizeOf[idx]; seen && s != size {
			t.Fatalf("class %d holds sizes %d and %d", idx, s, size)
		}
		sizeOf[idx] = size
	}
	if _, _, ok := sizeClass(poolMax + 1); ok {
		t.Errorf("size %d past poolMax is pooled", poolMax+1)
	}

	var p bufPool
	for _, n := range []int{3, 17, 100, PageSize - 1, PageSize, PageSize + 1, PageSize + 3, PageSize + 4, 33 << 10} {
		_, size, _ := sizeClass(n)
		if b := p.get(n); len(b) != n || cap(b) != size {
			t.Errorf("a miss for %d bytes gave len %d cap %d, want the class size %d", n, len(b), cap(b), size)
		}
	}

	b := p.get(PageSize + 2)
	for i := range b {
		b[i] = byte(i)
	}
	p.put(b)
	again := p.get(PageSize + 1)
	if &again[0] != &b[0] {
		t.Fatal("a released full-page diff buffer was not handed out again")
	}
	for i, x := range again[:cap(again)] {
		if x != poisonByte {
			t.Fatalf("byte %d of a reused buffer is %#x, want the poison %#x", i, x, poisonByte)
		}
	}

	odd := make([]byte, 100) // the class of 100 bytes is 104
	idx, _, _ := sizeClass(cap(odd))
	p.put(odd)
	if k := len(p[idx].free); k != 0 {
		t.Errorf("a %d-byte buffer was pooled in class %d (%d free)", cap(odd), idx, k)
	}
	if odd[0] == poisonByte {
		t.Error("a dropped buffer was poisoned")
	}
}

// TestBufPoolConcurrent: servers and application threads share a System's
// pool, so goroutines taking and releasing buffers of one class at once
// must never hold the same buffer together.
func TestBufPoolConcurrent(t *testing.T) {
	var p bufPool
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.get(PageSize)
				for j := range b {
					b[j] = mark
				}
				runtime.Gosched()
				for j, x := range b {
					if x != mark {
						t.Errorf("byte %d of goroutine %d's buffer is %#x: another holder wrote it", j, mark, x)
						return
					}
				}
				p.put(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

// fetchRoundRig returns one diff fetch round of a page between two nodes:
// node 0, the page's home, rewrites every word of it in one interval (a
// full-page diff, PageSize+3 bytes); node 1, holding a lock so the diff is
// kept for a grant, takes the notice and faults the diff in from node 0;
// then both retire the interval, as a collection would. Node 1's copy is
// made by the first round (a whole page), so every later one is a diff.
func fetchRoundRig(tb testing.TB) (round func(), sys *System) {
	sys = New(Config{Procs: 2, DisableGC: true})
	a := sys.MallocPage(PageSize)
	pid := PageID(a / PageSize)
	n0, n1 := sys.nodes[0], sys.nodes[1]
	if !n0.isHome(pid) {
		tb.Fatal("rig premise: node 0 homes the page")
	}
	n1.thread.held = []int{0}
	return func() {
		n0.mu.Lock()
		pg := n0.pageFor(pid)
		n0.thread.ensureWritableLocked(pg)
		for w := 0; w < PageSize; w += 4 {
			pg.data[w]++
		}
		n0.closeIntervalLocked()
		ivl := n0.intervals[0][len(n0.intervals[0])-1]
		rec := &interval{creator: 0, seq: ivl.seq, vc: ivl.vc.clone(), pages: ivl.pages}
		n0.mu.Unlock()

		n1.mu.Lock()
		n1.incorporateLocked([]*interval{rec}, nil)
		n1.thread.ensureReadableLocked(n1.pageFor(pid))
		n1.mu.Unlock()

		for _, n := range sys.nodes {
			n.mu.Lock()
			n.freeRetiredLocked(rec.vc)
			n.mu.Unlock()
		}
	}, sys
}

// TestWarmFetchRoundAllocatesLittle: once a fetch round between two nodes
// is warm, the diff its writer encodes, the reply that carries it and the
// copy the requester keeps for a grant all come from the System's pool.
// Each of the three is over 4 KiB, so any one of them allocated afresh
// breaks the bound; what is left is the round's bookkeeping.
func TestWarmFetchRoundAllocatesLittle(t *testing.T) {
	const runs, limit = 50, 3 << 10
	round, sys := fetchRoundRig(t)
	defer sys.Close()
	for i := 0; i < 3; i++ {
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a warm fetch round allocates %d bytes", per)
	if per > limit {
		t.Fatalf("a warm fetch round allocated %d bytes, want <= %d", per, limit)
	}
	if st := sys.nodes[1].Stats(); st.PageFetches != 1 || st.DiffsApplied != 2+runs {
		t.Fatalf("node 1 fetched %d pages and applied %d diffs over %d rounds; want one page, then a diff a round", st.PageFetches, st.DiffsApplied, 3+runs)
	}
}

// BenchmarkFetchRound is fetchRoundRig's round: a write interval, a diff
// fetch under a lock and the retirement of both nodes' records.
func BenchmarkFetchRound(b *testing.B) {
	round, sys := fetchRoundRig(b)
	defer sys.Close()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
