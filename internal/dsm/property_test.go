package dsm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: applying makeDiff(_, data, twin, _) to a copy of twin reconstructs
// data exactly, for arbitrary page contents.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		rng.Read(twin)
		data := make([]byte, PageSize)
		copy(data, twin)
		// Mutate a random set of runs.
		for k := rng.Intn(20); k >= 0; k-- {
			off := rng.Intn(PageSize)
			n := rng.Intn(PageSize - off)
			for i := 0; i < n; i++ {
				data[off+i] = byte(rng.Int())
			}
		}
		diff, _ := makeDiff(new(bufPool), data, twin, nil)
		got := make([]byte, PageSize)
		copy(got, twin)
		applyDiff(got, diff)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// maxDiff bounds every diff: one run over the whole page, whose header is
// a 1-byte gap and a 2-byte length. Every later run's header is at most 4
// bytes and follows a gap of at least one unchanged 4-byte word.
const maxDiff = PageSize + 3

// Property: a diff never exceeds maxDiff, and an unchanged page diffs to
// nothing. The seeds are fixed, so a failure repeats.
func TestDiffSizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		rng.Read(twin)
		same, _ := makeDiff(new(bufPool), twin, twin, nil)
		if len(same) != 0 {
			return false
		}
		data := make([]byte, PageSize)
		rng.Read(data)
		diff, _ := makeDiff(new(bufPool), data, twin, nil)
		return len(diff) <= maxDiff
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDiffSizeAdversarial pins the sizes, and holds the bound, on pages
// that split a diff into runs: every word changed but one in the middle
// (two runs; 8-byte run headers made this 4,108 B, past their own
// PageSize+8 bound), every other word changed (the most runs a page
// holds), and one equal word after every 128 changed ones (runs whose
// lengths take 2 bytes).
func TestDiffSizeAdversarial(t *testing.T) {
	twin := make([]byte, PageSize)
	for _, tt := range []struct {
		name string
		same func(w int) bool // word w keeps the twin's value
		want int
	}{
		{"whole page", func(int) bool { return false }, maxDiff},
		{"one equal word mid-page", func(w int) bool { return w == PageSize/8 }, runBytes(0, PageSize/2) + runBytes(4, PageSize/2-4)},
		{"every other word equal", func(w int) bool { return w%2 == 1 }, runBytes(0, 4) + (PageSize/8-1)*runBytes(4, 4)},
		{"one equal word after 128", func(w int) bool { return w%129 == 128 }, runBytes(0, 512) + 6*runBytes(4, 512) + runBytes(4, 484)},
	} {
		data := bytes.Clone(twin)
		for w := 0; w < PageSize/4; w++ {
			if !tt.same(w) {
				data[4*w] = 1
			}
		}
		diff, _ := makeDiff(new(bufPool), data, twin, nil)
		if len(diff) != tt.want || len(diff) > maxDiff {
			t.Errorf("%s: diff is %d B, want %d (bound %d)", tt.name, len(diff), tt.want, maxDiff)
		}
		got := bytes.Clone(twin)
		applyDiff(got, diff)
		if !bytes.Equal(got, data) {
			t.Errorf("%s: diff does not rebuild the page", tt.name)
		}
	}
}

// TestDiffFloat64LowWords pins the page a small float64 update leaves
// behind: only the low word of each double changes, so the diff is 512
// one-word runs of 6 bytes each — a 1-byte gap, a 1-byte length and the
// word — where 8-byte run headers made it 6,144 B, larger than the page.
func TestDiffFloat64LowWords(t *testing.T) {
	twin := make([]byte, PageSize)
	data := make([]byte, PageSize)
	for i := 0; i < PageSize; i += 8 {
		x := 1 + float64(i)/3
		binary.LittleEndian.PutUint64(twin[i:], math.Float64bits(x))
		binary.LittleEndian.PutUint64(data[i:], math.Float64bits(x*(1+1e-12)))
		if wordEq(data, twin, i) || !wordEq(data, twin, i+4) {
			t.Fatalf("test premise: the update of double %d changes more than its low word", i/8)
		}
	}
	diff, _ := makeDiff(new(bufPool), data, twin, nil)
	if want := 512 * (1 + 1 + 4); len(diff) != want {
		t.Fatalf("diff of a page of float64 low-word updates is %d B, want %d", len(diff), want)
	}
	got := bytes.Clone(twin)
	if n := applyDiff(got, diff); n != PageSize/2 || !bytes.Equal(got, data) {
		t.Fatalf("diff applied %d B and rebuilt the page: %v; want %d B, true", n, bytes.Equal(got, data), PageSize/2)
	}
}

// Property: diffs of disjoint modifications commute — the multiple-writer
// merge invariant. Two writers modify disjoint byte ranges of the same
// page; applying their diffs in either order gives the same result.
func TestDiffCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, PageSize)
		rng.Read(base)
		// Writer A mutates the low half, writer B the high half.
		aData := make([]byte, PageSize)
		copy(aData, base)
		bData := make([]byte, PageSize)
		copy(bData, base)
		for i := 0; i < 100; i++ {
			aData[rng.Intn(PageSize/2)] = byte(rng.Int())
			bData[PageSize/2+rng.Intn(PageSize/2)] = byte(rng.Int())
		}
		da, _ := makeDiff(new(bufPool), aData, base, nil)
		db, _ := makeDiff(new(bufPool), bData, base, nil)

		ab := make([]byte, PageSize)
		copy(ab, base)
		applyDiff(ab, da)
		applyDiff(ab, db)

		ba := make([]byte, PageSize)
		copy(ba, base)
		applyDiff(ba, db)
		applyDiff(ba, da)
		return bytes.Equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: vector clock merge is commutative, idempotent, and dominant.
func TestVectorClockMergeProperties(t *testing.T) {
	f := func(xs, ys [8]uint16) bool {
		a := make(VectorClock, 8)
		b := make(VectorClock, 8)
		for i := 0; i < 8; i++ {
			a[i] = int32(xs[i])
			b[i] = int32(ys[i])
		}
		ab := a.clone()
		ab.merge(b)
		ba := b.clone()
		ba.merge(a)
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		if !a.dominatedBy(ab) || !b.dominatedBy(ab) {
			return false
		}
		again := ab.clone()
		again.merge(b)
		for i := range again {
			if again[i] != ab[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the codec round-trips arbitrary primitive sequences.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(a uint32, d []byte, s string) bool {
		var w wbuf
		w.u32(a)
		w.bytes(d)
		w.str(s)
		r := rbuf{b: w.b}
		if r.u32() != a {
			return false
		}
		if !bytes.Equal(r.bytes(), d) || r.str() != s {
			return false
		}
		return r.done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (system-level): for random sequences of barrier-separated
// scattered writes, every node converges to the same array contents as a
// sequential execution of the same writes — collecting at every barrier
// (GCPressure 1), and under the default trigger (which these short runs
// never reach).
func TestScatteredWriteConvergenceProperty(t *testing.T) {
	for _, pressure := range []int{1, 0} {
		if err := quick.Check(scatteredWriteConverges(Config{GCPressure: pressure}), &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("GCPressure %d: %v", pressure, err)
		}
	}
}

// Property: the same convergence holds with the collector at a pressure of
// two records — collection epochs then interleave with nearly every
// synchronization yet stay invisible to the computation (the barrier-free
// half of the contract lives in acquire_gc_test.go).
func TestScatteredWriteConvergenceWithAcquireGCProperty(t *testing.T) {
	cfg := Config{GCPressure: 2}
	if err := quick.Check(scatteredWriteConverges(cfg), &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// scatteredWriteConverges builds the convergence property under a given
// GC configuration (Procs is forced to 4).
func scatteredWriteConverges(cfg Config) func(seed int64) bool {
	return func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const P = 4
		const words = 256 // spans a page boundary: 2KB…
		rounds := 1 + rng.Intn(3)
		plan := make([][]int, rounds) // word -> writer per round
		for r := range plan {
			plan[r] = make([]int, words)
			for w := range plan[r] {
				plan[r][w] = rng.Intn(P)
			}
		}
		ref := make([]int64, words)
		for r := range plan {
			for w, owner := range plan[r] {
				ref[w] = int64(r*1000 + owner*10 + w%7)
			}
		}

		cfg.Procs = P
		sys := New(cfg)
		base := sys.MallocPage(8 * words)
		sys.Register("rounds", func(n *Node, _ []byte) {
			for r := range plan {
				for w, owner := range plan[r] {
					if owner == n.ID() {
						n.WriteI64(base+Addr(8*w), int64(r*1000+owner*10+w%7))
					}
				}
				n.Barrier()
			}
		})
		okCh := true
		err := sys.Run(func(n *Node) {
			n.RunParallel("rounds", nil)
			for w := 0; w < words; w++ {
				if n.ReadI64(base+Addr(8*w)) != ref[w] {
					okCh = false
				}
			}
		})
		return err == nil && okCh
	}
}
