package dsm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: applying makeDiff(data, twin, _) to a copy of twin reconstructs
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
		diff, _ := makeDiff(data, twin, nil)
		got := make([]byte, PageSize)
		copy(got, twin)
		applyDiff(got, diff)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a diff never exceeds the encoded size of the whole page plus
// one run header, and an unchanged page diffs to nothing.
func TestDiffSizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		rng.Read(twin)
		same, _ := makeDiff(twin, twin, nil)
		if len(same) != 0 {
			return false
		}
		data := make([]byte, PageSize)
		rng.Read(data)
		diff, _ := makeDiff(data, twin, nil)
		return len(diff) <= PageSize+8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
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
		da, _ := makeDiff(aData, base, nil)
		db, _ := makeDiff(bData, base, nil)

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
	f := func(a uint32, b int64, c float64, d []byte, s string) bool {
		var w wbuf
		w.u32(a)
		w.i64(b)
		w.f64(c)
		w.bytes(d)
		w.str(s)
		r := rbuf{b: w.b}
		if r.u32() != a || r.i64() != b {
			return false
		}
		if got := r.f64(); got != c && !(got != got && c != c) { // NaN-safe
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
