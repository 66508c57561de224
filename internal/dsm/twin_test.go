package dsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// appendDiff is the straightforward encoder makeDiff must match byte for
// byte: the same runs, grown by append.
func appendDiff(data, twin []byte) []byte {
	var w wbuf
	prev := 0
	for i := 0; i < len(data); {
		for i < len(data) && wordEq(data, twin, i) {
			i += 4
		}
		if i >= len(data) {
			break
		}
		start := i
		for i < len(data) && !wordEq(data, twin, i) {
			i += 4
		}
		w.uv(uint64(start-prev) / 4)
		w.uv(uint64(i-start) / 4)
		w.b = append(w.b, data[start:i]...)
		prev = i
	}
	return w.b
}

// runBytes is the encoded size of a diff run of n bytes that starts gap
// bytes past the previous run's end (or the page start): its two varint
// word counts, then its bytes.
func runBytes(gap, n int) int {
	var w wbuf
	w.uv(uint64(gap / 4))
	w.uv(uint64(n / 4))
	return len(w.b) + n
}

// mutatePage returns a copy of twin with k random words changed (k = 0
// leaves it equal), so the runs range from none to the whole page.
func mutatePage(rng *rand.Rand, twin []byte, k int) []byte {
	data := bytes.Clone(twin)
	for ; k > 0; k-- {
		data[4*rng.Intn(PageSize/4)+rng.Intn(4)] ^= byte(1 + rng.Intn(255))
	}
	return data
}

// Property: makeDiff's output is byte-identical to the append-built
// encoding and is one exact-size allocation (len == cap), whatever the
// scratch it is handed holds from earlier calls.
func TestMakeDiffExactProperty(t *testing.T) {
	var scratch []byte
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		rng.Read(twin)
		for _, k := range []int{0, 1, rng.Intn(16), rng.Intn(PageSize / 4), 4 * PageSize} {
			data := mutatePage(rng, twin, k)
			var diff []byte
			diff, scratch = makeDiff(data, twin, scratch)
			want := appendDiff(data, twin)
			if !bytes.Equal(diff, want) || len(diff) != cap(diff) {
				t.Logf("seed %d, %d words changed: len %d cap %d, reference len %d", seed, k, len(diff), cap(diff), len(want))
				return false
			}
			if len(diff) > 0 && len(scratch) > 0 && &diff[0] == &scratch[0] {
				t.Logf("seed %d: diff aliases the scratch buffer", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTwinBuffersNeverShared runs randomized lock/barrier programs — words
// of a few pages written by random single owners, round by round, plus
// lock-protected counters and a write that changes nothing (an empty diff)
// — in two shapes at four nodes: "omp", a forked region per round, and
// "tmk", one region with a barrier closing each round. Each runs with the
// collector at every episode and at the default threshold. The owed-diff
// rule (twinInvariants) must hold on every node at every quiescent point —
// after each of the master's joins or barriers — and recycled twins must
// leave the contents exact: at the end no twin buffer (live or on a free
// list) may be shared by two pages, sit on a free list twice, or alias a
// page copy or a diff.
func TestTwinBuffersNeverShared(t *testing.T) {
	var recycled, walks int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const P = 4
		words := 512 + rng.Intn(1024) // 1-4 pages of 8-byte words
		rounds := 3 + rng.Intn(6)
		nlocks := 1 + rng.Intn(3)
		owner := make([][]int, rounds)
		for r := range owner {
			owner[r] = make([]int, words)
			for w := range owner[r] {
				owner[r][w] = rng.Intn(P)
			}
		}
		want := make([]int64, words)
		for r := range owner {
			for w, o := range owner[r] {
				want[w] = int64(r*1000 + o*10 + w%7)
			}
		}
		for _, shape := range []string{"omp", "tmk"} {
			for _, pressure := range []int{1, 0} {
				sys := New(Config{Procs: P, GCPressure: pressure})
				base := sys.MallocPage(8 * words)
				ctrs := sys.MallocPage(8 * nlocks)
				idle := sys.MallocPage(8 * P)
				var walkErr error // the master's: set and read on its thread
				walk := func() {
					walks++
					for _, n := range sys.nodes {
						if err := twinInvariants(n); err != nil && walkErr == nil {
							walkErr = err
						}
					}
				}
				round := func(n *Node, r int) {
					me := n.ID()
					n.WriteI64(idle+Addr(8*me), 0)
					for w, o := range owner[r] {
						if o == me {
							n.WriteI64(base+Addr(8*w), int64(r*1000+o*10+w%7))
						}
					}
					lk := (r + me) % nlocks
					n.Acquire(lk)
					n.WriteI64(ctrs+Addr(8*lk), n.ReadI64(ctrs+Addr(8*lk))+1)
					n.Release(lk)
				}
				sys.Register("round", func(n *Node, arg []byte) { round(n, int(arg[0])) })
				sys.Register("plan", func(n *Node, _ []byte) {
					for r := range owner {
						round(n, r)
						n.Barrier()
						if n.ID() == 0 {
							walk()
						}
					}
				})
				got := make([]int64, words)
				var sum int64
				err := sys.Run(func(n *Node) {
					if shape == "omp" {
						for r := range owner {
							n.RunParallel("round", []byte{byte(r)})
							walk()
						}
					} else {
						n.RunParallel("plan", nil)
					}
					for w := range got {
						got[w] = n.ReadI64(base + Addr(8*w))
					}
					for lk := 0; lk < nlocks; lk++ {
						sum += n.ReadI64(ctrs + Addr(8*lk))
					}
				})
				sys.Close()
				at := fmt.Sprintf("seed %d %s pressure %d", seed, shape, pressure)
				if err == nil {
					err = walkErr
				}
				if err != nil {
					t.Logf("%s: %v", at, err)
					return false
				}
				if sum != int64(rounds*P) {
					t.Logf("%s: counters sum %d, want %d", at, sum, rounds*P)
					return false
				}
				for w := range want {
					if got[w] != want[w] {
						t.Logf("%s: word %d = %d, want %d", at, w, got[w], want[w])
						return false
					}
				}
				if err := twinAliasing(sys); err != nil {
					t.Logf("%s: %v", at, err)
					return false
				}
				for _, n := range sys.nodes {
					recycled += len(n.twinFree)
				}
			}
		}
		return true
	}
	max := 10
	if testing.Short() {
		max = 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
	if recycled == 0 {
		t.Error("no twin was ever released to a free list: recycling went unexercised")
	}
	t.Logf("%d quiescent walks", walks)
}

// twinInvariants checks one node, under its mu, against the owed-diff rule:
// a page holds a twin only while it is dirty in the open interval, every
// retained interval of the node's own holds a diff for each page it wrote,
// and every diff the modelled node still owes belongs to a retained one.
func twinInvariants(n *Node) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, pg := range n.pages {
		if pg == nil {
			continue
		}
		if pg.twin != nil && !pg.inDirty {
			return fmt.Errorf("node %d page %d holds a twin outside the open interval", n.id, pg.id)
		}
		for _, ivl := range pg.unpaid {
			if ivl.seq < n.ivlBase[n.id] {
				return fmt.Errorf("node %d page %d owes the diff of retired interval %d", n.id, pg.id, ivl.seq)
			}
		}
	}
	for _, ivl := range n.intervals[n.id] {
		for _, pid := range ivl.pages {
			if _, ok := ivl.diffs[pid]; !ok {
				return fmt.Errorf("node %d interval %d holds no diff for page %d", n.id, ivl.seq, pid)
			}
		}
	}
	return nil
}

// twinAliasing reports the owed-diff rule's first violation on a finished
// system (twinInvariants), or else the first backing array that a twin
// shares with another twin, a free-list entry, a page copy or a retained
// diff, over every node.
func twinAliasing(sys *System) error {
	for _, n := range sys.nodes {
		if err := twinInvariants(n); err != nil {
			return err
		}
	}
	owner := map[*byte]string{}
	claim := func(b []byte, who string) error {
		if len(b) == 0 {
			return nil
		}
		p := &b[:1][0]
		if prev, ok := owner[p]; ok {
			return fmt.Errorf("%s shares its backing array with %s", who, prev)
		}
		owner[p] = who
		return nil
	}
	for _, n := range sys.nodes {
		n.mu.Lock()
		defer n.mu.Unlock()
		for i, tw := range n.twinFree {
			if err := claim(tw, fmt.Sprintf("node %d free twin %d", n.id, i)); err != nil {
				return err
			}
		}
		for _, pg := range n.pages {
			if pg == nil {
				continue
			}
			if err := claim(pg.twin, fmt.Sprintf("node %d page %d twin", n.id, pg.id)); err != nil {
				return err
			}
			if err := claim(pg.data, fmt.Sprintf("node %d page %d copy", n.id, pg.id)); err != nil {
				return err
			}
		}
		for _, ivls := range n.intervals {
			for _, ivl := range ivls {
				for pid, d := range ivl.diffs {
					if err := claim(d, fmt.Sprintf("node %d diff (%d,%d) page %d", n.id, ivl.creator, ivl.seq, pid)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// BenchmarkTwinDiffCycle is one write fault → interval close (which
// encodes the diff) on a page the node homes: the twin comes off the
// node's free list once the cycle is warm, so B/op is the interval record
// and its exact-size diff.
func BenchmarkTwinDiffCycle(b *testing.B) {
	sys := New(Config{Procs: 2})
	defer sys.Close()
	a := sys.MallocPage(PageSize)
	n := sys.nodes[0]
	if !n.isHome(PageID(a / PageSize)) {
		b.Fatal("benchmark premise: node 0 homes the page")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.mu.Lock()
		pg := n.pageFor(PageID(a / PageSize))
		n.thread.ensureWritableLocked(pg)
		pg.data[(8*i)%PageSize]++
		n.closeIntervalLocked()
		n.mu.Unlock()
	}
}

// BenchmarkMakeDiff encodes a sparse page (one changed word in 64) and a
// dense one (every other word changed: the most runs a page can hold)
// with the scratch reused across calls, as on a node, and reports the
// encoded size next to the host cost.
func BenchmarkMakeDiff(b *testing.B) {
	twin := make([]byte, PageSize)
	rand.New(rand.NewSource(1)).Read(twin)
	for _, c := range []struct {
		name   string
		stride int // bytes between changed words
	}{{"sparse", 256}, {"dense", 8}} {
		data := bytes.Clone(twin)
		for i := 0; i < PageSize; i += c.stride {
			data[i] ^= 0xff
		}
		b.Run(c.name, func(b *testing.B) {
			var scratch, diff []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				diff, scratch = makeDiff(data, twin, scratch)
			}
			b.ReportMetric(float64(len(diff)), "B/diff")
		})
	}
}
