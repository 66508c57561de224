package dsm

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// walkAccessor moves a byte image through one pair of typed accessors: a
// scalar pair covers the image one element at a time, a bulk pair in one
// call.
type walkAccessor struct {
	name  string
	elem  int
	write func(n *Node, a Addr, img []byte)
	read  func(n *Node, a Addr, img []byte) // fills img
}

var walkAccessors = []walkAccessor{
	{"F64", 8, func(n *Node, a Addr, img []byte) {
		for i := 0; i < len(img); i += 8 {
			n.WriteF64(a+Addr(i), math.Float64frombits(binary.LittleEndian.Uint64(img[i:])))
		}
	}, func(n *Node, a Addr, img []byte) {
		for i := 0; i < len(img); i += 8 {
			binary.LittleEndian.PutUint64(img[i:], math.Float64bits(n.ReadF64(a+Addr(i))))
		}
	}},
	{"I64", 8, func(n *Node, a Addr, img []byte) {
		for i := 0; i < len(img); i += 8 {
			n.WriteI64(a+Addr(i), int64(binary.LittleEndian.Uint64(img[i:])))
		}
	}, func(n *Node, a Addr, img []byte) {
		for i := 0; i < len(img); i += 8 {
			binary.LittleEndian.PutUint64(img[i:], uint64(n.ReadI64(a+Addr(i))))
		}
	}},
	{"I32", 4, func(n *Node, a Addr, img []byte) {
		for i := 0; i < len(img); i += 4 {
			n.WriteI32(a+Addr(i), int32(binary.LittleEndian.Uint32(img[i:])))
		}
	}, func(n *Node, a Addr, img []byte) {
		for i := 0; i < len(img); i += 4 {
			binary.LittleEndian.PutUint32(img[i:], uint32(n.ReadI32(a+Addr(i))))
		}
	}},
	{"Bytes", 1, func(n *Node, a Addr, img []byte) { n.WriteBytes(a, img) },
		func(n *Node, a Addr, img []byte) { n.ReadBytes(a, img) }},
	{"F64s", 8, func(n *Node, a Addr, img []byte) {
		v := make([]float64, len(img)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(img[8*i:]))
		}
		n.WriteF64s(a, v)
	}, func(n *Node, a Addr, img []byte) {
		v := make([]float64, len(img)/8)
		n.ReadF64s(a, v)
		for i, x := range v {
			binary.LittleEndian.PutUint64(img[8*i:], math.Float64bits(x))
		}
	}},
	{"I32s", 4, func(n *Node, a Addr, img []byte) {
		v := make([]int32, len(img)/4)
		for i := range v {
			v[i] = int32(binary.LittleEndian.Uint32(img[4*i:]))
		}
		n.WriteI32s(a, v)
	}, func(n *Node, a Addr, img []byte) {
		v := make([]int32, len(img)/4)
		n.ReadI32s(a, v)
		copy(img, i32Bytes(v))
	}},
}

// walkShapes are the spans every accessor pair runs over, as byte offset
// and length inside four fresh pages.
var walkShapes = []struct {
	name     string
	off, len int
}{
	{"in-page", 64, 48},
	{"span", 256, 2*PageSize + 128},
	{"unaligned", PageSize - 13, 40},
	{"empty", 128, 0},
}

// walkPin is what one node's side of an access costs: its fault counters
// and its clock once the access returns.
type walkPin struct {
	readFaults, writeFaults, rounds int64
	clock                           sim.Time
}

// walkPins are the writer's (node 1) and the reader's (node 0) pins per
// accessor and shape: {ReadFaults, WriteFaults, FaultRounds, clock}. A
// scalar pair faults page by page; a span through a bulk accessor fetches
// its stale pages in one round.
var walkPins = map[string][2]walkPin{
	"F64/in-page":     {{0, 2, 0, 144440}, {1, 0, 1, 511840}},
	"F64/span":        {{0, 6, 0, 304440}, {3, 0, 3, 2066260}},
	"F64/unaligned":   {{0, 4, 0, 224440}, {2, 0, 2, 875050}},
	"F64/empty":       {{0, 0, 0, 64440}, {0, 0, 0, 142800}},
	"I64/in-page":     {{0, 2, 0, 144440}, {1, 0, 1, 511840}},
	"I64/span":        {{0, 6, 0, 304440}, {3, 0, 3, 2066260}},
	"I64/unaligned":   {{0, 4, 0, 224440}, {2, 0, 2, 875050}},
	"I64/empty":       {{0, 0, 0, 64440}, {0, 0, 0, 142800}},
	"I32/in-page":     {{0, 2, 0, 144440}, {1, 0, 1, 511840}},
	"I32/span":        {{0, 6, 0, 304440}, {3, 0, 3, 2066260}},
	"I32/unaligned":   {{0, 4, 0, 224440}, {2, 0, 2, 875050}},
	"I32/empty":       {{0, 0, 0, 64440}, {0, 0, 0, 142800}},
	"Bytes/in-page":   {{0, 2, 0, 144440}, {1, 0, 1, 511840}},
	"Bytes/span":      {{0, 6, 0, 244440}, {3, 0, 1, 1663900}},
	"Bytes/unaligned": {{0, 4, 0, 194440}, {2, 0, 1, 673870}},
	"Bytes/empty":     {{0, 0, 0, 64440}, {0, 0, 0, 142800}},
	"F64s/in-page":    {{0, 2, 0, 144440}, {1, 0, 1, 511840}},
	"F64s/span":       {{0, 6, 0, 244440}, {3, 0, 1, 1663900}},
	"F64s/unaligned":  {{0, 4, 0, 194440}, {2, 0, 1, 673870}},
	"F64s/empty":      {{0, 0, 0, 64440}, {0, 0, 0, 142800}},
	"I32s/in-page":    {{0, 2, 0, 144440}, {1, 0, 1, 511840}},
	"I32s/span":       {{0, 6, 0, 244440}, {3, 0, 1, 1663900}},
	"I32s/unaligned":  {{0, 4, 0, 194440}, {2, 0, 1, 673870}},
	"I32s/empty":      {{0, 0, 0, 64440}, {0, 0, 0, 142800}},
}

// TestPageWalkAccessors runs every typed accessor in every shape through
// the page walk: node 1 writes a seeded image, and after a barrier node 0
// reads it back through the fault path, under the shadow-memory oracle.
// The image must come back whole, and each side's fault counters and clock
// must equal their pins.
func TestPageWalkAccessors(t *testing.T) {
	SetDebugOracle(true)
	defer SetDebugOracle(false)
	for _, acc := range walkAccessors {
		for _, sh := range walkShapes {
			name := acc.name + "/" + sh.name
			t.Run(name, func(t *testing.T) {
				size := sh.len - sh.len%acc.elem
				rng := sim.NewRNG(40)
				img := make([]byte, size)
				for i := range img {
					img[i] = byte(rng.Intn(256))
				}
				got := make([]byte, size)
				var pins [2]walkPin
				sys := New(Config{Procs: 2})
				base := sys.MallocPage(4 * PageSize)
				a := base + Addr(sh.off)
				sys.Register("walk", func(n *Node, _ []byte) {
					if n.ID() == 1 {
						acc.write(n, a, img)
						pins[0] = walkPinOf(n)
					}
					n.Barrier()
					if n.ID() == 0 {
						acc.read(n, a, got)
						pins[1] = walkPinOf(n)
					}
				})
				if err := sys.Run(func(n *Node) { n.RunParallel("walk", nil) }); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, img) {
					t.Errorf("%d bytes at offset %d did not come back whole", size, sh.off)
				}
				if d := OracleDiverges(); d != 0 {
					t.Errorf("%d reads diverged from the shadow memory", d)
				}
				if want, ok := walkPins[name]; !ok || pins != want {
					t.Errorf("writer, reader = %+v, want %+v", pins, want)
				}
			})
		}
	}
}

func walkPinOf(n *Node) walkPin {
	st := n.Stats()
	return walkPin{st.ReadFaults, st.WriteFaults, st.FaultRounds, n.Now()}
}

// TestIslandFlushesTakeTheEngine: two clients of one node flush and take
// write faults and read faults at the same time, while the other node
// flushes its writes to them. A flush's acknowledgments route by type
// alone, so two flushes of one node awaiting them at once would end the
// run; the node's engine lock keeps them apart, and every acknowledgment
// reaches its flush.
func TestIslandFlushesTakeTheEngine(t *testing.T) {
	const threads, rounds = 3, 200
	sys := New(Config{Procs: 2})
	mine := sys.MallocPage(threads * PageSize)
	theirs := sys.MallocPage(PageSize)
	sys.Register("island", func(n *Node, _ []byte) {
		n.Barrier()
		if n.ID() == 1 {
			for r := 0; r < rounds; r++ {
				n.WriteI64(theirs, int64(r))
				n.Flush()
			}
			n.Barrier()
			return
		}
		var wg sync.WaitGroup
		clks := make([]sim.Clock, threads)
		for k := range clks {
			clks[k].AdvanceTo(n.Now())
			cl := n.NewClient(&clks[k], ClientCosts{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if e := recover(); e != nil {
						t.Errorf("island thread %d: %v", k, e)
					}
				}()
				for r := 0; r < rounds; r++ {
					cl.WriteI64(mine+Addr(k*PageSize), int64(r))
					_ = cl.ReadI64(theirs)
					cl.Flush()
				}
			}()
		}
		wg.Wait()
		for k := range clks {
			n.clock.AdvanceTo(clks[k].Now())
		}
		n.Barrier()
	})
	done := make(chan error, 1)
	go func() { done <- sys.Run(func(n *Node) { n.RunParallel("island", nil) }) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a flush never got its acknowledgments")
	}
	if got, want := sys.Node(0).Stats().Flushes, int64(threads*rounds); got != want {
		t.Errorf("node 0 finished %d flushes, want %d", got, want)
	}
	if got := sys.Node(0).Stats().WriteFaults; got < threads*rounds {
		t.Errorf("node 0 took %d write faults, want at least %d (one a round a thread)", got, threads*rounds)
	}
}

// BenchmarkAccessHit is node 0 accessing a page it has already written,
// so every access is a hit of the page walk: a scalar read and write, and
// a 4 KiB ReadF64s and WriteF64s of the whole page.
func BenchmarkAccessHit(b *testing.B) {
	for _, bm := range []struct {
		name string
		body func(n *Node, a Addr, v []float64)
	}{
		{"read", func(n *Node, a Addr, _ []float64) { _ = n.ReadF64(a) }},
		{"write", func(n *Node, a Addr, _ []float64) { n.WriteF64(a, 1) }},
		{"read-4KiB", func(n *Node, a Addr, v []float64) { n.ReadF64s(a, v) }},
		{"write-4KiB", func(n *Node, a Addr, v []float64) { n.WriteF64s(a, v) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			sys := New(Config{Procs: 2})
			a := sys.MallocPage(PageSize)
			v := make([]float64, PageSize/8)
			var before, after walkPin
			if err := sys.Run(func(n *Node) {
				n.WriteF64(a, 1)
				before = walkPinOf(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bm.body(n, a, v)
				}
				b.StopTimer()
				after = walkPinOf(n)
			}); err != nil {
				b.Fatal(err)
			}
			if after != before {
				b.Fatalf("hits moved the faults or the clock: %+v, then %+v", before, after)
			}
		})
	}
}
