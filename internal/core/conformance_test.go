package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dsm"
)

// The backend-seam conformance suite: every core primitive is exercised
// by a deterministic scenario that runs once per backend, and the
// OBSERVABLE RESULTS — shared-memory contents, reduction values,
// firstprivate round-trips, synchronization orderings — must be
// identical across backends. This is the contract that lets one
// application source target the NOW and the SMP interchangeably; a new
// backend is conformant when this suite passes unchanged.
//
// Scenarios are built so their observable output is schedule-independent
// (per-thread slots, commutative integer-valued reductions, semaphore
// pipelines): anything less would encode one backend's scheduling into
// the expectation.

// conformanceScenario runs a program on one backend under the given DSM
// knobs and returns its observable result.
type conformanceScenario struct {
	name string
	run  func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{}
}

var conformanceScenarios = []conformanceScenario{
	{
		// Barrier ordering: writes before a barrier are visible after it,
		// on every thread, across two phases.
		name: "barrier-ordering",
		run: func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{} {
			const P = 8
			p := NewProgram(Config{Threads: P, Backend: bk, DSM: knobs})
			a := p.SharedPage(8 * P)
			sums := p.SharedPage(8 * P)
			p.RegisterRegion("phases", func(tc *TC) {
				me := tc.ThreadNum()
				tc.WriteI64(a+Addr(8*me), int64(1+me))
				tc.Barrier()
				var s int64
				for i := 0; i < P; i++ {
					s += tc.ReadI64(a + Addr(8*i))
				}
				tc.Barrier()
				tc.WriteI64(a+Addr(8*me), int64(10*(1+me)))
				tc.Barrier()
				for i := 0; i < P; i++ {
					s += tc.ReadI64(a + Addr(8*i))
				}
				tc.WriteI64(sums+Addr(8*me), s)
			})
			out := make([]int64, P)
			if err := p.Run(func(m *MC) {
				m.Parallel("phases", NoArgs())
				for i := range out {
					out[i] = m.ReadI64(sums + Addr(8*i))
				}
			}); err != nil {
				t.Fatal(err)
			}
			return out
		},
	},
	{
		// Critical exclusion: a read-modify-write counter under a named
		// critical section loses no updates; a second named section is
		// independent.
		name: "critical-exclusion",
		run: func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{} {
			const P, iters = 6, 25
			p := NewProgram(Config{Threads: P, Backend: bk, DSM: knobs})
			ctr := p.SharedPage(16)
			p.RegisterRegion("inc", func(tc *TC) {
				for i := 0; i < iters; i++ {
					tc.Critical("a", func() {
						tc.WriteI64(ctr, tc.ReadI64(ctr)+1)
					})
					if i%5 == 0 {
						tc.Critical("b", func() {
							tc.WriteI64(ctr+8, tc.ReadI64(ctr+8)+2)
						})
					}
				}
			})
			var got [2]int64
			if err := p.Run(func(m *MC) {
				m.Parallel("inc", NoArgs())
				got[0] = m.ReadI64(ctr)
				got[1] = m.ReadI64(ctr + 8)
			}); err != nil {
				t.Fatal(err)
			}
			return got
		},
	},
	{
		// Semaphore handoff: a two-stage pipeline must deliver every value
		// in order through the paper's sema_signal/sema_wait pair.
		name: "semaphore-handoff",
		run: func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{} {
			const rounds = 12
			p := NewProgram(Config{Threads: 3, Backend: bk, DSM: knobs})
			d01 := p.SharedPage(8)
			d12 := p.SharedPage(8)
			outA := p.SharedPage(8 * rounds)
			const s01, a01, s12, a12 = 1, 2, 3, 4
			p.RegisterRegion("pipe3", func(tc *TC) {
				switch tc.ThreadNum() {
				case 0:
					for i := 0; i < rounds; i++ {
						tc.WriteI64(d01, int64(i*i))
						tc.SemaSignal(s01)
						tc.SemaWait(a01)
					}
				case 1:
					for i := 0; i < rounds; i++ {
						tc.SemaWait(s01)
						v := tc.ReadI64(d01)
						tc.SemaSignal(a01)
						tc.WriteI64(d12, v+1)
						tc.SemaSignal(s12)
						tc.SemaWait(a12)
					}
				case 2:
					for i := 0; i < rounds; i++ {
						tc.SemaWait(s12)
						tc.WriteI64(outA+Addr(8*i), tc.ReadI64(d12))
						tc.SemaSignal(a12)
					}
				}
			})
			out := make([]int64, rounds)
			if err := p.Run(func(m *MC) {
				m.Parallel("pipe3", NoArgs())
				for i := range out {
					out[i] = m.ReadI64(outA + Addr(8*i))
				}
			}); err != nil {
				t.Fatal(err)
			}
			return out
		},
	},
	{
		// Condition variables: the Figure 4 task queue drains exactly the
		// enqueued set, with the nwait broadcast terminating every worker.
		name: "condvar-taskqueue",
		run: func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{} {
			const P, tasks = 4, 40
			p := NewProgram(Config{Threads: P, Backend: bk, DSM: knobs})
			head := p.SharedPage(8)
			tail := p.Shared(8)
			nwait := p.Shared(8)
			ring := p.SharedPage(8 * tasks)
			done := p.SharedPage(8 * tasks)
			const cond = 0
			const crit = "q"
			p.RegisterRegion("drain", func(tc *TC) {
				for {
					var task int64 = -1
					tc.CriticalEnter(crit)
					for {
						h, tl := tc.ReadI64(head), tc.ReadI64(tail)
						if h < tl {
							task = tc.ReadI64(ring + Addr(8*h))
							tc.WriteI64(head, h+1)
							break
						}
						nw := tc.ReadI64(nwait) + 1
						tc.WriteI64(nwait, nw)
						if nw == P {
							tc.CondBroadcast(cond, crit)
							break
						}
						tc.CondWait(cond, crit)
						if tc.ReadI64(nwait) == P {
							break
						}
						tc.WriteI64(nwait, tc.ReadI64(nwait)-1)
					}
					tc.CriticalExit(crit)
					if task < 0 {
						return
					}
					tc.WriteI64(done+Addr(8*task), task*task)
				}
			})
			out := make([]int64, tasks)
			if err := p.Run(func(m *MC) {
				for i := 0; i < tasks; i++ {
					m.WriteI64(ring+Addr(8*i), int64(i))
				}
				m.WriteI64(tail, tasks)
				m.Parallel("drain", NoArgs())
				for i := range out {
					out[i] = m.ReadI64(done + Addr(8*i))
				}
			}); err != nil {
				t.Fatal(err)
			}
			return out
		},
	},
	{
		// Reductions: scalar sum/prod/min/max and an array reduction over
		// integer-valued floats (exact under any combining order).
		name: "reduction-results",
		run: func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{} {
			const P, N = 5, 17
			p := NewProgram(Config{Threads: P, Backend: bk, DSM: knobs})
			sum := p.NewReduction(OpSum)
			prod := p.NewReduction(OpProd)
			mn := p.NewReduction(OpMin)
			mx := p.NewReduction(OpMax)
			arr := p.NewArrayReduction(OpSum, N)
			p.RegisterRegion("reds", func(tc *TC) {
				v := float64(tc.ThreadNum() + 1)
				sum.Reduce(tc, v)
				prod.Reduce(tc, 2)
				mn.Reduce(tc, v)
				mx.Reduce(tc, v)
				local := make([]float64, N)
				for i := range local {
					local[i] = v * float64(i)
				}
				arr.Reduce(tc, local)
			})
			out := make([]float64, 4+N)
			if err := p.Run(func(m *MC) {
				sum.Reset(&m.TC)
				prod.Reset(&m.TC)
				mn.Reset(&m.TC)
				mx.Reset(&m.TC)
				arr.Reset(&m.TC)
				m.Parallel("reds", NoArgs())
				out[0] = sum.Value(&m.TC)
				out[1] = prod.Value(&m.TC)
				out[2] = mn.Value(&m.TC)
				out[3] = mx.Value(&m.TC)
				arr.Value(&m.TC, out[4:])
			}); err != nil {
				t.Fatal(err)
			}
			return out
		},
	},
	{
		// Firstprivate args: every encodable kind round-trips through the
		// fork environment to every thread, including parallel-do bounds.
		name: "firstprivate-args",
		run: func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{} {
			const P, N = 4, 55
			p := NewProgram(Config{Threads: P, Backend: bk, DSM: knobs})
			tgt := p.SharedPage(8 * P)
			cover := p.SharedPage(8 * N)
			p.RegisterDo("fpdo", func(tc *TC, lo, hi int) {
				r := tc.Args()
				k := r.I64()
				f := r.F64()
				base := r.Addr()
				blob := r.Bytes()
				tc.WriteI64(base+Addr(8*tc.ThreadNum()), k+int64(f)+int64(len(blob)))
				for i := lo; i < hi; i++ {
					tc.WriteI64(cover+Addr(8*i), int64(i)*k)
				}
			})
			out := make([]int64, P+N)
			if err := p.Run(func(m *MC) {
				args := NoArgs().I64(7).F64(3.5).Addr(tgt).Bytes([]byte{9, 9})
				m.ParallelDo("fpdo", 0, N, args)
				for i := 0; i < P; i++ {
					out[i] = m.ReadI64(tgt + Addr(8*i))
				}
				for i := 0; i < N; i++ {
					out[P+i] = m.ReadI64(cover + Addr(8*i))
				}
			}); err != nil {
				t.Fatal(err)
			}
			return out
		},
	},
	{
		// Bulk memory: typed slice and byte accessors agree with each
		// other across page boundaries and unaligned offsets.
		name: "memory-accessors",
		run: func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{} {
			p := NewProgram(Config{Threads: 2, Backend: bk, DSM: knobs})
			base := p.SharedPage(3 * PageSize)
			out := make([]interface{}, 0, 4)
			if err := p.Run(func(m *MC) {
				span := base + Addr(PageSize-12) // straddles a page boundary
				f64s := []float64{1.5, -2.25, 3.125, 1e9}
				m.WriteF64s(span, f64s)
				got := make([]float64, len(f64s))
				m.ReadF64s(span, got)
				out = append(out, got)

				i32s := []int32{7, -8, 1 << 30}
				m.WriteI32s(span+64, i32s)
				gi := make([]int32, len(i32s))
				m.ReadI32s(span+64, gi)
				out = append(out, gi)

				m.WriteBytes(span+128, []byte{1, 2, 3, 4, 5})
				gb := make([]byte, 5)
				m.ReadBytes(span+128, gb)
				out = append(out, gb)

				m.WriteI32(base+2, -77) // unaligned scalar
				m.WriteF64(base+32, 6.75)
				out = append(out, []float64{float64(m.ReadI32(base + 2)), m.ReadF64(base + 32)})
			}); err != nil {
				t.Fatal(err)
			}
			return out
		},
	},
	{
		// Threadprivate: per-thread state persists across regions and
		// never leaks between threads.
		name: "threadprivate",
		run: func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{} {
			const P = 4
			p := NewProgram(Config{Threads: P, Backend: bk, DSM: knobs})
			outA := p.SharedPage(8 * P)
			p.RegisterRegion("stash", func(tc *TC) {
				buf := tc.Threadprivate("s", 8)
				buf[0] = byte(3 * (tc.ThreadNum() + 1))
			})
			p.RegisterRegion("recall", func(tc *TC) {
				buf := tc.Threadprivate("s", 8)
				tc.WriteI64(outA+Addr(8*tc.ThreadNum()), int64(buf[0]))
			})
			out := make([]int64, P)
			if err := p.Run(func(m *MC) {
				m.Parallel("stash", NoArgs())
				m.Parallel("recall", NoArgs())
				for i := range out {
					out[i] = m.ReadI64(outA + Addr(8*i))
				}
			}); err != nil {
				t.Fatal(err)
			}
			return out
		},
	},
	{
		// Flush: portable no-op semantics — flushed writes are (at least)
		// visible after the next barrier on every backend.
		name: "flush-portability",
		run: func(t *testing.T, bk BackendKind, knobs dsm.Config) interface{} {
			const P = 3
			p := NewProgram(Config{Threads: P, Backend: bk, DSM: knobs})
			a := p.SharedPage(8)
			got := p.SharedPage(8 * P)
			p.RegisterRegion("fl", func(tc *TC) {
				if tc.ThreadNum() == 0 {
					tc.WriteI64(a, 42)
					tc.Flush()
				}
				tc.Barrier()
				tc.WriteI64(got+Addr(8*tc.ThreadNum()), tc.ReadI64(a))
			})
			out := make([]int64, P)
			if err := p.Run(func(m *MC) {
				m.Parallel("fl", NoArgs())
				for i := range out {
					out[i] = m.ReadI64(got + Addr(8*i))
				}
			}); err != nil {
				t.Fatal(err)
			}
			return out
		},
	},
}

// runConformanceSuite runs every scenario on every backend — the NOW,
// the SMP, and the hybrid at island counts {1, 2, procs} — and requires
// identical observable results, with the NOW backend as the reference.
func runConformanceSuite(t *testing.T, knobs dsm.Config) {
	for _, sc := range conformanceScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ref := sc.run(t, BackendNOW, knobs)
			for _, bk := range backends[1:] {
				bk := bk
				t.Run(string(bk), func(t *testing.T) {
					got := sc.run(t, bk, knobs)
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("backend %s diverges from %s:\n got %v\nwant %v",
							bk, backends[0], got, ref)
					}
				})
			}
		})
	}
}

// TestBackendConformance is the suite under the default GC configuration.
func TestBackendConformance(t *testing.T) { runConformanceSuite(t, dsm.Config{}) }

// TestBackendConformanceAcquireGC reruns the nine scenarios on all three
// backends with the acquire-epoch collector forced on at very low
// pressure — collection epochs then interleave with nearly every
// synchronization operation, and the observable results must still be
// identical across backends (the collector is invisible to the
// computation).
func TestBackendConformanceAcquireGC(t *testing.T) {
	runConformanceSuite(t, dsm.Config{GCPressure: 2})
}

// wideTeamScenario is a parameterized conformance kernel for team sizes
// beyond what the fixed scenarios above use: per-thread writes made
// visible by a barrier, a critical counter that must lose no updates,
// and a post-barrier sum over every slot. Its observable result is
// schedule-independent at any team size.
func wideTeamScenario(t *testing.T, bk BackendKind, procs int) interface{} {
	p := NewProgram(Config{Threads: procs, Backend: bk})
	a := p.SharedPage(8 * procs)
	sums := p.SharedPage(8 * procs)
	ctr := p.SharedPage(8)
	p.RegisterRegion("wide", func(tc *TC) {
		me := tc.ThreadNum()
		tc.WriteI64(a+Addr(8*me), int64(me*me+1))
		tc.Critical("w", func() {
			tc.WriteI64(ctr, tc.ReadI64(ctr)+1)
		})
		tc.Barrier()
		var s int64
		for i := 0; i < procs; i++ {
			s += tc.ReadI64(a + Addr(8*i))
		}
		s += tc.ReadI64(ctr) // == procs: every increment precedes the barrier
		tc.WriteI64(sums+Addr(8*me), s)
	})
	out := make([]int64, procs+1)
	if err := p.Run(func(m *MC) {
		m.Parallel("wide", NoArgs())
		for i := 0; i < procs; i++ {
			out[i] = m.ReadI64(sums + Addr(8*i))
		}
		out[procs] = m.ReadI64(ctr)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBackendConformanceWideTeams is the >8-proc smoke of the
// conformance suite: with homes sharded across nodes and the barrier a
// combining tree, 16- and 32-thread teams must produce results identical
// to hardware shared memory, on every backend.
func TestBackendConformanceWideTeams(t *testing.T) {
	for _, procs := range []int{16, 32} {
		procs := procs
		t.Run(fmt.Sprintf("p%d", procs), func(t *testing.T) {
			t.Parallel()
			ref := wideTeamScenario(t, BackendNOW, procs)
			for _, bk := range backends[1:] {
				got := wideTeamScenario(t, bk, procs)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("backend %s diverges from %s at %d threads:\n got %v\nwant %v",
						bk, backends[0], procs, got, ref)
				}
			}
		})
	}
}
