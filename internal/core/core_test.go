package core

import (
	"testing"

	"repro/internal/dsm"
)

// backends lists every execution substrate; the runtime tests below run
// identically on each, which is the first half of the backend-seam
// contract (conformance_test.go adds the cross-backend comparisons). The
// hybrid backend appears at three island counts: the all-local degenerate
// (1), a genuine NOW-of-SMPs split (2), and — via clamping of a large
// count — one thread per island, the pure-NOW degenerate.
var backends = []BackendKind{
	BackendNOW,
	BackendSMP,
	HybridIslands(1),
	HybridIslands(2),
	HybridIslands(1 << 20), // clamps to islands == procs
}

// forEachBackend runs fn as a subtest per backend.
func forEachBackend(t *testing.T, fn func(t *testing.T, bk BackendKind)) {
	for _, bk := range backends {
		bk := bk
		t.Run(string(bk), func(t *testing.T) { fn(t, bk) })
	}
}

func TestParallelRegionThreadNumbers(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		const P = 4
		p := NewProgram(Config{Threads: P, Backend: bk})
		seen := p.SharedPage(8 * P)
		p.RegisterRegion("ids", func(tc *TC) {
			tc.WriteI64(seen+Addr(8*tc.ThreadNum()), int64(tc.ThreadNum()+1))
			if tc.NumThreads() != P {
				t.Errorf("NumThreads = %d, want %d", tc.NumThreads(), P)
			}
		})
		err := p.Run(func(m *MC) {
			m.Parallel("ids", NoArgs())
			for i := 0; i < P; i++ {
				if got := m.ReadI64(seen + Addr(8*i)); got != int64(i+1) {
					t.Errorf("thread %d wrote %d", i, got)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestParallelDoStaticSchedule(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		const P, N = 4, 103
		p := NewProgram(Config{Threads: P, Backend: bk})
		marks := p.SharedPage(8 * N)
		p.RegisterDo("mark", func(tc *TC, lo, hi int) {
			for i := lo; i < hi; i++ {
				tc.WriteI64(marks+Addr(8*i), int64(tc.ThreadNum()+1))
			}
		})
		err := p.Run(func(m *MC) {
			m.ParallelDo("mark", 0, N, NoArgs())
			covered := 0
			for i := 0; i < N; i++ {
				v := m.ReadI64(marks + Addr(8*i))
				if v < 1 || v > P {
					t.Fatalf("iteration %d never executed (mark %d)", i, v)
				}
				covered++
			}
			if covered != N {
				t.Errorf("covered %d of %d iterations", covered, N)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestStaticBlockPartition(t *testing.T) {
	for _, tt := range []struct{ lo, hi, of int }{
		{0, 100, 4}, {0, 7, 8}, {5, 5, 3}, {-10, 10, 3}, {0, 1, 1},
	} {
		total := 0
		prevEnd := tt.lo
		for w := 0; w < tt.of; w++ {
			lo, hi := StaticBlock(tt.lo, tt.hi, w, tt.of)
			if lo != prevEnd {
				t.Errorf("block %d of %v starts at %d, want %d", w, tt, lo, prevEnd)
			}
			if hi < lo {
				t.Errorf("block %d of %v inverted: [%d,%d)", w, tt, lo, hi)
			}
			total += hi - lo
			prevEnd = hi
		}
		if want := max(0, tt.hi-tt.lo); total != want {
			t.Errorf("partition of %v covers %d, want %d", tt, total, want)
		}
		if prevEnd != tt.hi && tt.hi > tt.lo {
			t.Errorf("partition of %v ends at %d, want %d", tt, prevEnd, tt.hi)
		}
	}
}

func TestFirstprivateArgs(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		const P = 3
		p := NewProgram(Config{Threads: P, Backend: bk})
		sum := p.SharedPage(8)
		out := p.SharedPage(8 * P)
		p.RegisterRegion("fp", func(tc *TC) {
			r := tc.Args()
			base := r.Int()
			scale := r.F64()
			target := r.Addr()
			blob := r.Bytes()
			v := int64(float64(base)*scale) + int64(len(blob))
			tc.WriteI64(target+Addr(8*tc.ThreadNum()), v)
		})
		err := p.Run(func(m *MC) {
			m.WriteI64(sum, 0)
			args := NoArgs().Int(10).F64(2.5).Addr(out).Bytes([]byte{1, 2, 3})
			m.Parallel("fp", args)
			for i := 0; i < P; i++ {
				if got := m.ReadI64(out + Addr(8*i)); got != 28 {
					t.Errorf("thread %d computed %d, want 28", i, got)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestCriticalMutualExclusion(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		const P, iters = 6, 20
		p := NewProgram(Config{Threads: P, Backend: bk})
		ctr := p.SharedPage(8)
		p.RegisterRegion("inc", func(tc *TC) {
			for i := 0; i < iters; i++ {
				tc.Critical("ctr", func() {
					tc.WriteI64(ctr, tc.ReadI64(ctr)+1)
				})
			}
		})
		err := p.Run(func(m *MC) {
			m.Parallel("inc", NoArgs())
			if got := m.ReadI64(ctr); got != P*iters {
				t.Errorf("counter = %d, want %d", got, P*iters)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestScalarReductions(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		const P = 5
		p := NewProgram(Config{Threads: P, Backend: bk})
		sum := p.NewReduction(OpSum)
		mx := p.NewReduction(OpMax)
		mn := p.NewReduction(OpMin)
		p.RegisterRegion("red", func(tc *TC) {
			v := float64(tc.ThreadNum() + 1)
			sum.Reduce(tc, v)
			mx.Reduce(tc, v)
			mn.Reduce(tc, v)
		})
		err := p.Run(func(m *MC) {
			sum.Reset(&m.TC)
			mx.Reset(&m.TC)
			mn.Reset(&m.TC)
			m.Parallel("red", NoArgs())
			if got := sum.Value(&m.TC); got != P*(P+1)/2 {
				t.Errorf("sum = %v, want %v", got, P*(P+1)/2)
			}
			if got := mx.Value(&m.TC); got != P {
				t.Errorf("max = %v, want %v", got, P)
			}
			if got := mn.Value(&m.TC); got != 1 {
				t.Errorf("min = %v, want 1", got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestArrayReduction(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		const P, N = 4, 37
		p := NewProgram(Config{Threads: P, Backend: bk})
		ar := p.NewArrayReduction(OpSum, N)
		p.RegisterRegion("ared", func(tc *TC) {
			local := make([]float64, N)
			for i := range local {
				local[i] = float64((tc.ThreadNum() + 1) * i)
			}
			ar.Reduce(tc, local)
		})
		err := p.Run(func(m *MC) {
			ar.Reset(&m.TC)
			m.Parallel("ared", NoArgs())
			got := make([]float64, N)
			ar.Value(&m.TC, got)
			factor := float64(P * (P + 1) / 2)
			for i := range got {
				if want := factor * float64(i); got[i] != want {
					t.Errorf("elem %d = %v, want %v", i, got[i], want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestThreadprivatePersistsAcrossRegions(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		const P = 3
		p := NewProgram(Config{Threads: P, Backend: bk})
		out := p.SharedPage(8 * P)
		p.RegisterRegion("tp1", func(tc *TC) {
			buf := tc.Threadprivate("state", 8)
			buf[0] = byte(tc.ThreadNum() + 7)
		})
		p.RegisterRegion("tp2", func(tc *TC) {
			buf := tc.Threadprivate("state", 8)
			tc.WriteI64(out+Addr(8*tc.ThreadNum()), int64(buf[0]))
		})
		err := p.Run(func(m *MC) {
			m.Parallel("tp1", NoArgs())
			m.Parallel("tp2", NoArgs())
			for i := 0; i < P; i++ {
				if got := m.ReadI64(out + Addr(8*i)); got != int64(i+7) {
					t.Errorf("thread %d threadprivate = %d, want %d", i, got, i+7)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestSemaphorePipelineDirectives(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		// Figure 3 of the paper through the OpenMP layer.
		const rounds = 8
		p := NewProgram(Config{Threads: 2, Backend: bk})
		data := p.SharedPage(8)
		var consumed []int64
		p.RegisterRegion("pipe", func(tc *TC) {
			const avail, done = 1, 2
			if tc.ThreadNum() == 0 {
				for i := 0; i < rounds; i++ {
					tc.WriteI64(data, int64(3*i))
					tc.SemaSignal(avail)
					tc.SemaWait(done)
				}
			} else {
				for i := 0; i < rounds; i++ {
					tc.SemaWait(avail)
					consumed = append(consumed, tc.ReadI64(data))
					tc.SemaSignal(done)
				}
			}
		})
		if err := p.Run(func(m *MC) { m.Parallel("pipe", NoArgs()) }); err != nil {
			t.Fatal(err)
		}
		if len(consumed) != rounds {
			t.Fatalf("consumed %d rounds, want %d", len(consumed), rounds)
		}
		for i, v := range consumed {
			if v != int64(3*i) {
				t.Errorf("round %d consumed %d, want %d", i, v, 3*i)
			}
		}
	})
}

func TestBarrierDirective(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		const P = 4
		p := NewProgram(Config{Threads: P, Backend: bk})
		a := p.SharedPage(8 * P)
		ok := p.SharedPage(8 * P)
		p.RegisterRegion("twophase", func(tc *TC) {
			me := tc.ThreadNum()
			tc.WriteI64(a+Addr(8*me), int64(me*me))
			tc.Barrier()
			nxt := (me + 1) % P
			if got := tc.ReadI64(a + Addr(8*nxt)); got == int64(nxt*nxt) {
				tc.WriteI64(ok+Addr(8*me), 1)
			}
		})
		err := p.Run(func(m *MC) {
			m.Parallel("twophase", NoArgs())
			for i := 0; i < P; i++ {
				if m.ReadI64(ok+Addr(8*i)) != 1 {
					t.Errorf("thread %d did not observe neighbour's pre-barrier write", i)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestElapsedAndTraffic(t *testing.T) {
	p := NewProgram(Config{Threads: 2})
	p.RegisterRegion("w", func(tc *TC) { tc.Compute(1000); tc.Barrier() })
	if err := p.Run(func(m *MC) { m.Parallel("w", NoArgs()) }); err != nil {
		t.Fatal(err)
	}
	if p.Elapsed() <= 0 {
		t.Error("Elapsed() = 0 after a run with work")
	}
	if r := p.Report(); r.Messages == 0 || r.Bytes == 0 {
		t.Errorf("no traffic recorded: msgs=%d bytes=%d", r.Messages, r.Bytes)
	}
}

// TestReportTrafficSums checks the run report of the DSM-backed backends
// on a program that pages and locks across the interconnect: the page,
// sync and GC pairs sum to the totals, page service and synchronization
// both show up, coalescing never reports more datagrams than messages, and
// the fault ledger saw the rounds.
func TestReportTrafficSums(t *testing.T) {
	for _, bk := range []BackendKind{BackendNOW, HybridIslands(2)} {
		t.Run(string(bk), func(t *testing.T) {
			const procs = 4
			p := NewProgram(Config{Threads: procs, Backend: bk})
			defer p.Close()
			a := p.SharedPage(procs * PageSize)
			p.RegisterRegion("rw", func(tc *TC) {
				me := tc.ThreadNum()
				tc.WriteI64(a+Addr(me*PageSize), int64(me+1))
				tc.Barrier()
				nxt := (me + 1) % procs
				v := tc.ReadI64(a + Addr(nxt*PageSize))
				tc.Critical("sum", func() { tc.WriteI64(a, tc.ReadI64(a)+v) })
			})
			if err := p.Run(func(m *MC) { m.Parallel("rw", NoArgs()) }); err != nil {
				t.Fatal(err)
			}
			r := p.Report()
			if m, b := r.PageMsgs+r.SyncMsgs+r.GCMsgs, r.PageBytes+r.SyncBytes+r.GCBytes; m != r.Messages || b != r.Bytes {
				t.Errorf("categories sum to %d msgs / %d B, totals %d / %d", m, b, r.Messages, r.Bytes)
			}
			if r.PageMsgs == 0 || r.SyncMsgs == 0 {
				t.Errorf("want page and sync traffic, got %+v", r)
			}
			if r.Frames <= 0 || r.Frames > r.Messages {
				t.Errorf("%d frames for %d messages", r.Frames, r.Messages)
			}
			if r.FaultRounds == 0 || r.FaultWait <= 0 {
				t.Errorf("fault ledger empty: %d rounds, %v", r.FaultRounds, r.FaultWait)
			}
		})
	}
}

// TestSMPZeroTraffic pins the SMP backend's defining property: hardware
// shared memory moves no interconnect messages and keeps no protocol
// metadata, while virtual time still advances with the computation.
func TestSMPZeroTraffic(t *testing.T) {
	p := NewProgram(Config{Threads: 4, Backend: BackendSMP})
	a := p.SharedPage(8 * 1024)
	p.RegisterDo("w", func(tc *TC, lo, hi int) {
		for i := lo; i < hi; i++ {
			tc.WriteF64(a+Addr(8*i), float64(i))
		}
		tc.Compute(float64(hi - lo))
		tc.Barrier()
	})
	if err := p.Run(func(m *MC) { m.ParallelDo("w", 0, 1024, NoArgs()) }); err != nil {
		t.Fatal(err)
	}
	if p.Elapsed() <= 0 {
		t.Error("Elapsed() = 0 after a run with work")
	}
	if r := p.Report(); r != (dsm.Report{}) {
		t.Errorf("SMP backend reported traffic or protocol metadata: %+v", r)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
