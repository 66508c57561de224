package core

import (
	"testing"

	"repro/internal/dsm"
	"repro/internal/sim"
)

// The hybrid backend's degenerate-limit pins. A NOW-of-SMPs must collapse
// exactly to its two parents:
//
//   - islands = 1: one big SMP. No interconnect exists, so traffic and
//     protocol metadata are identically zero, and the virtual clocks of a
//     deterministic program match the SMP backend tick for tick (the
//     intra-island cost model IS the SMP cost model).
//   - islands = procs: one thread per island. Every synchronization and
//     every fault crosses the network, so a paging program moves exactly
//     the NOW's messages and bytes.

// hybridProgram runs one deterministic workload on a backend and reports
// its observables: elapsed virtual time, traffic, and a result digest.
type hybridProgram struct {
	name string
	run  func(t *testing.T, bk BackendKind, procs int) (sim.Time, int64, int64, int64)
}

var hybridPrograms = []hybridProgram{
	{
		// Barrier-phased stencil: compute + write own block, barrier, read
		// neighbour's block. Deterministic on every backend.
		name: "stencil",
		run: func(t *testing.T, bk BackendKind, procs int) (sim.Time, int64, int64, int64) {
			const perProc = 512 // 4 KiB of f64s per worker: one page each
			n := perProc * procs
			p := NewProgram(Config{Threads: procs, Backend: bk})
			a := p.SharedPage(8 * n)
			sums := p.SharedPage(8 * procs)
			p.RegisterRegion("phase", func(tc *TC) {
				me := tc.ThreadNum()
				lo, hi := StaticBlock(0, n, me, procs)
				buf := make([]float64, hi-lo)
				for i := range buf {
					buf[i] = float64(lo + i)
				}
				tc.WriteF64s(a+Addr(8*lo), buf)
				tc.Compute(float64(hi - lo))
				tc.Barrier()
				nxt := (me + 1) % procs
				nlo, nhi := StaticBlock(0, n, nxt, procs)
				nbuf := make([]float64, nhi-nlo)
				tc.ReadF64s(a+Addr(8*nlo), nbuf)
				var s float64
				for _, v := range nbuf {
					s += v
				}
				tc.Compute(float64(nhi - nlo))
				tc.Barrier()
				tc.WriteF64(sums+Addr(8*me), s)
			})
			var total float64
			if err := p.Run(func(m *MC) {
				for rep := 0; rep < 3; rep++ {
					m.Parallel("phase", NoArgs())
				}
				for i := 0; i < procs; i++ {
					total += m.ReadF64(sums + Addr(8*i))
				}
			}); err != nil {
				t.Fatal(err)
			}
			r := p.Report()
			return p.Elapsed(), r.Messages, r.Bytes, int64(total)
		},
	},
	{
		// Semaphore pipeline: producer/filter/consumer with distinct sema
		// ids, so every P matches a unique V and timing is deterministic.
		name: "sema-pipeline",
		run: func(t *testing.T, bk BackendKind, procs int) (sim.Time, int64, int64, int64) {
			if procs < 3 {
				procs = 3
			}
			const rounds = 10
			p := NewProgram(Config{Threads: procs, Backend: bk})
			d01 := p.SharedPage(8)
			d12 := p.SharedPage(8)
			out := p.SharedPage(8 * rounds)
			const s01, a01, s12, a12 = 11, 12, 13, 14
			p.RegisterRegion("pipe", func(tc *TC) {
				switch tc.ThreadNum() {
				case 0:
					for i := 0; i < rounds; i++ {
						tc.WriteI64(d01, int64(i))
						tc.Compute(500)
						tc.SemaSignal(s01)
						tc.SemaWait(a01)
					}
				case 1:
					for i := 0; i < rounds; i++ {
						tc.SemaWait(s01)
						v := tc.ReadI64(d01)
						tc.SemaSignal(a01)
						tc.Compute(300)
						tc.WriteI64(d12, v*2)
						tc.SemaSignal(s12)
						tc.SemaWait(a12)
					}
				case 2:
					for i := 0; i < rounds; i++ {
						tc.SemaWait(s12)
						tc.WriteI64(out+Addr(8*i), tc.ReadI64(d12))
						tc.SemaSignal(a12)
					}
				}
			})
			var total int64
			if err := p.Run(func(m *MC) {
				m.Parallel("pipe", NoArgs())
				for i := 0; i < rounds; i++ {
					total += m.ReadI64(out + Addr(8*i))
				}
			}); err != nil {
				t.Fatal(err)
			}
			r := p.Report()
			return p.Elapsed(), r.Messages, r.Bytes, total
		},
	},
	{
		// Uncontended locks plus a reduction: every thread works under its
		// own named critical section, then folds into a shared sum.
		name: "locks-reduction",
		run: func(t *testing.T, bk BackendKind, procs int) (sim.Time, int64, int64, int64) {
			p := NewProgram(Config{Threads: procs, Backend: bk})
			cells := p.SharedPage(8 * procs)
			sum := p.NewReduction(OpSum)
			names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
			p.RegisterRegion("own", func(tc *TC) {
				me := tc.ThreadNum()
				for i := 0; i < 5; i++ {
					tc.Critical(names[me%len(names)], func() {
						tc.WriteI64(cells+Addr(8*me), tc.ReadI64(cells+Addr(8*me))+int64(me+1))
					})
					tc.Compute(200)
				}
				tc.Barrier()
				sum.Reduce(tc, float64(tc.ReadI64(cells+Addr(8*me))))
			})
			var total float64
			if err := p.Run(func(m *MC) {
				sum.Reset(&m.TC)
				m.Parallel("own", NoArgs())
				total = sum.Value(&m.TC)
			}); err != nil {
				t.Fatal(err)
			}
			r := p.Report()
			return p.Elapsed(), r.Messages, r.Bytes, int64(total)
		},
	},
}

// smpPins are the SMP cost model's clocks and results for hybridPrograms,
// recorded from the flat-heap SMP backend that omp-smp ran on before it
// became the hybrid backend's one-island case: every clock is a sum of
// compute and the Platform's SMP* constants, so it is exact.
var smpPins = map[string]map[int]struct {
	clock sim.Time
	res   int64
}{
	"stencil":         {1: {82800, 130816}, 4: {88800, 2096128}, 8: {88800, 8386560}},
	"sema-pipeline":   {1: {147400, 90}, 4: {147400, 90}, 8: {147400, 90}},
	"locks-reduction": {1: {28525, 5}, 4: {29600, 50}, 8: {29700, 180}},
}

// TestHybridIslandsOneMatchesSMP pins the all-local degenerate: BackendSMP
// and a hybrid run with a single island both report identically-zero
// traffic, and their virtual clocks and results equal the SMP cost
// model's recorded values exactly.
func TestHybridIslandsOneMatchesSMP(t *testing.T) {
	for _, prog := range hybridPrograms {
		prog := prog
		t.Run(prog.name, func(t *testing.T) {
			for _, procs := range []int{1, 4, 8} {
				want := smpPins[prog.name][procs]
				for _, bk := range []BackendKind{BackendSMP, HybridIslands(1)} {
					clock, msgs, bytes, res := prog.run(t, bk, procs)
					if msgs != 0 || bytes != 0 {
						t.Errorf("%s procs=%d: moved traffic: %d msgs, %d bytes", bk, procs, msgs, bytes)
					}
					if res != want.res {
						t.Errorf("%s procs=%d: result %d, want %d", bk, procs, res, want.res)
					}
					if clock != want.clock {
						t.Errorf("%s procs=%d: clock %d, want the SMP clock %d", bk, procs, clock, want.clock)
					}
				}
			}
		})
	}
}

// TestHybridIslandsOneZeroMetadata extends the pin to the whole run
// report — protocol metadata, GC accounting and the time ledger: with one
// island there is no LRC protocol to account for, so a lock-free program
// reports what the SMP backend does, the zero value.
func TestHybridIslandsOneZeroMetadata(t *testing.T) {
	p := NewProgram(Config{Threads: 4, Backend: HybridIslands(1)})
	a := p.SharedPage(8 * 1024)
	p.RegisterDo("w", func(tc *TC, lo, hi int) {
		for i := lo; i < hi; i++ {
			tc.WriteF64(a+Addr(8*i), float64(i))
		}
		tc.Barrier()
	})
	if err := p.Run(func(m *MC) { m.ParallelDo("w", 0, 1024, NoArgs()) }); err != nil {
		t.Fatal(err)
	}
	if r := p.Report(); r != (dsm.Report{}) {
		t.Errorf("islands=1 reported protocol activity: %+v", r)
	}
}

// TestHybridIslandsProcsMatchesNOW pins the all-remote degenerate on a
// paging workload: with one thread per island every fault, barrier, and
// fork crosses the interconnect, and the message and byte counts must
// equal the NOW backend's exactly.
func TestHybridIslandsProcsMatchesNOW(t *testing.T) {
	paging := func(bk BackendKind, procs int) (int64, int64) {
		const perProc = 1024 // two pages of f64s per worker
		n := perProc * procs
		p := NewProgram(Config{Threads: procs, Backend: bk})
		a := p.SharedPage(8 * n)
		p.RegisterRegion("page", func(tc *TC) {
			me := tc.ThreadNum()
			lo, hi := StaticBlock(0, n, me, procs)
			buf := make([]float64, hi-lo)
			for i := range buf {
				buf[i] = float64(me*1000 + i)
			}
			tc.WriteF64s(a+Addr(8*lo), buf)
			tc.Barrier()
			nxt := (me + 1) % procs
			nlo, nhi := StaticBlock(0, n, nxt, procs)
			nbuf := make([]float64, nhi-nlo)
			tc.ReadF64s(a+Addr(8*nlo), nbuf)
			tc.Barrier()
		})
		if err := p.Run(func(m *MC) {
			m.Parallel("page", NoArgs())
			m.Parallel("page", NoArgs())
		}); err != nil {
			t.Fatal(err)
		}
		r := p.Report()
		return r.Messages, r.Bytes
	}
	for _, procs := range []int{2, 4, 8} {
		nowMsgs, nowBytes := paging(BackendNOW, procs)
		hybMsgs, hybBytes := paging(HybridIslands(procs), procs)
		if nowMsgs == 0 || nowBytes == 0 {
			t.Fatalf("procs=%d: NOW paging run moved no traffic", procs)
		}
		if hybMsgs != nowMsgs || hybBytes != nowBytes {
			t.Errorf("procs=%d: hybrid islands=procs traffic (%d msgs, %d B) != NOW (%d msgs, %d B)",
				procs, hybMsgs, hybBytes, nowMsgs, nowBytes)
		}
	}
}

// TestHybridIslandClamping pins the island-count normalization: 0 means
// the default (2), and any count above the team size clamps to one thread
// per island.
func TestHybridIslandClamping(t *testing.T) {
	for _, tt := range []struct {
		threads, islands, want int
	}{
		{8, 0, 2}, {8, 1, 1}, {8, 3, 3}, {8, 64, 8}, {1, 0, 1}, {2, 5, 2},
	} {
		p := NewProgram(Config{Threads: tt.threads, Backend: HybridIslands(tt.islands)})
		if got := p.sys.Procs(); got != tt.want {
			t.Errorf("threads=%d islands=%d: got %d islands, want %d", tt.threads, tt.islands, got, tt.want)
		}
		p.Close()
	}
	// A non-positive count is plain BackendHybrid, not a kind-parser panic.
	if HybridIslands(-3) != BackendHybrid {
		t.Errorf("HybridIslands(-3) = %q, want %q", HybridIslands(-3), BackendHybrid)
	}
}

// TestHybridTrafficScalesWithIslands sanity-checks the middle of the
// range: more islands cannot move less data on the stencil (intra-island
// sharing only ever removes traffic).
func TestHybridTrafficScalesWithIslands(t *testing.T) {
	run := hybridPrograms[0].run // stencil
	const procs = 8
	var prevBytes int64 = -1
	for _, k := range []int{1, 2, 4, 8} {
		_, msgs, bytes, _ := run(t, HybridIslands(k), procs)
		if k == 1 && (msgs != 0 || bytes != 0) {
			t.Fatalf("islands=1 moved traffic: %d msgs %d bytes", msgs, bytes)
		}
		if bytes < prevBytes {
			t.Errorf("islands=%d moved fewer bytes (%d) than islands=%d (%d)", k, bytes, k/2, prevBytes)
		}
		prevBytes = bytes
	}
}
