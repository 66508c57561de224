package mpi

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

func runWorld(t *testing.T, procs int, fn func(r *Rank)) *World {
	t.Helper()
	w := New(Config{Procs: procs})
	if err := w.Run(fn); err != nil {
		t.Fatalf("mpi run failed: %v", err)
	}
	return w
}

func TestSendRecvOrdering(t *testing.T) {
	runWorld(t, 2, func(r *Rank) {
		const rounds = 10
		if r.ID() == 0 {
			for i := 0; i < rounds; i++ {
				r.Send(1, 5, []byte{byte(i)})
			}
		} else {
			for i := 0; i < rounds; i++ {
				got := r.Recv(0, 5)
				if got[0] != byte(i) {
					t.Errorf("round %d: got %d", i, got[0])
				}
			}
		}
	})
}

func TestRecvTagSelectivity(t *testing.T) {
	runWorld(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, []byte("seven"))
			r.Send(1, 8, []byte("eight"))
		} else {
			// Receive out of order by tag; message 7 must be buffered.
			if got := string(r.Recv(0, 8)); got != "eight" {
				t.Errorf("tag 8: got %q", got)
			}
			if got := string(r.Recv(0, 7)); got != "seven" {
				t.Errorf("tag 7: got %q", got)
			}
		}
	})
}

func TestAnySource(t *testing.T) {
	runWorld(t, 4, func(r *Rank) {
		if r.ID() == 0 {
			seen := make(map[int]bool)
			for i := 0; i < 3; i++ {
				from, body := r.RecvFrom(AnySource, 1)
				if int(body[0]) != from {
					t.Errorf("body %d from %d", body[0], from)
				}
				seen[from] = true
			}
			if len(seen) != 3 {
				t.Errorf("saw %d distinct sources, want 3", len(seen))
			}
		} else {
			r.Send(0, 1, []byte{byte(r.ID())})
		}
	})
}

func TestBarrierAndClocks(t *testing.T) {
	w := runWorld(t, 8, func(r *Rank) {
		// Rank 3 computes 5 ms of work; everyone's post-barrier clock
		// must be at least that.
		if r.ID() == 3 {
			r.Compute(500_000)
		}
		r.Barrier()
		if r.Now() < 5_000_000 {
			t.Errorf("rank %d clock %v after barrier, want >= 5ms", r.ID(), r.Now())
		}
	})
	_ = w
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runWorld(t, p, func(r *Rank) {
				var data []byte
				if r.ID() == 0 {
					data = []byte("hello now")
				}
				got := r.Bcast(0, data)
				if string(got) != "hello now" {
					t.Errorf("rank %d got %q", r.ID(), got)
				}
			})
		})
	}
}

func TestBcastNonzeroRoot(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runWorld(t, p, func(r *Rank) {
				for root := 0; root < p; root++ {
					var data []byte
					if r.ID() == root {
						data = []byte{byte(root), byte(root + 1)}
					}
					got := r.Bcast(root, data)
					if len(got) != 2 || got[0] != byte(root) || got[1] != byte(root+1) {
						t.Errorf("rank %d root %d got %v", r.ID(), root, got)
					}
				}
			})
		})
	}
}

// TestBcastBackToBack pipelines broadcasts from rotating roots with no
// intervening synchronization: payloads must never cross between steps
// (each rank receives from its exact tree parent).
func TestBcastBackToBack(t *testing.T) {
	const rounds = 32
	for _, p := range []int{3, 4, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runWorld(t, p, func(r *Rank) {
				for i := 0; i < rounds; i++ {
					root := i % p
					var data []byte
					if r.ID() == root {
						data = []byte{byte(i)}
					}
					got := r.Bcast(root, data)
					if len(got) != 1 || got[0] != byte(i) {
						t.Errorf("rank %d round %d got %v", r.ID(), i, got)
					}
				}
			})
		})
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runWorld(t, p, func(r *Rank) {
				in := []float64{float64(r.ID() + 1), 1}
				want0 := float64(p*(p+1)) / 2
				if red := r.Reduce(OpSum, in); r.ID() == 0 {
					if red[0] != want0 || red[1] != float64(p) {
						t.Errorf("reduce got %v", red)
					}
				}
				all := r.Allreduce(OpSum, in)
				if all[0] != want0 {
					t.Errorf("rank %d allreduce got %v, want %v", r.ID(), all[0], want0)
				}
				mx := r.Allreduce(OpMax, []float64{float64(r.ID())})
				if mx[0] != float64(p-1) {
					t.Errorf("allreduce max got %v", mx[0])
				}
			})
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runWorld(t, p, func(r *Rank) {
				got := r.Allgather([]byte{byte(r.ID()), byte(r.ID())})
				if len(got) != 2*p {
					t.Fatalf("rank %d: %d bytes, want %d", r.ID(), len(got), 2*p)
				}
				for i := 0; i < p; i++ {
					if got[2*i] != byte(i) || got[2*i+1] != byte(i) {
						t.Errorf("rank %d: chunk %d = %v", r.ID(), i, got[2*i:2*i+2])
					}
				}
			})
		})
	}
}

func TestGather(t *testing.T) {
	runWorld(t, 5, func(r *Rank) {
		out := r.Gather([]byte{byte(10 * r.ID())})
		if r.ID() == 0 {
			for i, b := range out {
				if int(b[0]) != 10*i {
					t.Errorf("slot %d = %d", i, b[0])
				}
			}
		} else if out != nil {
			t.Errorf("non-root got non-nil gather")
		}
	})
}

func TestAlltoall(t *testing.T) {
	for _, p := range []int{2, 4, 8, 6} { // power-of-two and not
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runWorld(t, p, func(r *Rank) {
				chunks := make([][]byte, p)
				for i := range chunks {
					chunks[i] = []byte{byte(r.ID()), byte(i)}
				}
				got := r.Alltoall(chunks)
				for i, c := range got {
					if int(c[0]) != i || int(c[1]) != r.ID() {
						t.Errorf("rank %d slot %d = %v", r.ID(), i, c)
					}
				}
			})
		})
	}
}

func TestScatter(t *testing.T) {
	runWorld(t, 4, func(r *Rank) {
		var chunks [][]byte
		if r.ID() == 0 {
			chunks = [][]byte{{0}, {10}, {20}, {30}}
		}
		got := r.Scatter(chunks)
		if int(got[0]) != 10*r.ID() {
			t.Errorf("rank %d got %d", r.ID(), got[0])
		}
	})
}

func TestSendrecvNoDeadlock(t *testing.T) {
	runWorld(t, 4, func(r *Rank) {
		p := r.Procs()
		right, left := (r.ID()+1)%p, (r.ID()-1+p)%p
		got := r.Sendrecv(right, []byte{byte(r.ID())}, left, 9)
		if int(got[0]) != left {
			t.Errorf("rank %d got %d, want %d", r.ID(), got[0], left)
		}
	})
}

func TestF64Helpers(t *testing.T) {
	runWorld(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.SendF64s(1, 2, []float64{1.5, -2.25, 1e300})
		} else {
			got := r.RecvF64s(0, 2)
			want := []float64{1.5, -2.25, 1e300}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("elem %d: %v != %v", i, got[i], want[i])
				}
			}
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	w := New(Config{Procs: 2})
	err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			panic("rank failure")
		}
		r.Recv(1, 3) // would hang without abort
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestMessageStatsCount(t *testing.T) {
	w := New(Config{Procs: 2})
	_ = w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, make([]byte, 1000))
		} else {
			r.Recv(0, 1)
		}
	})
	msgs, bytes := w.Switch().Stats().Snapshot()
	if msgs != 1 {
		t.Errorf("messages = %d, want 1", msgs)
	}
	if bytes < 1000 {
		t.Errorf("bytes = %d, want >= 1000", bytes)
	}
}

// TestAllreduceBcastInterleaving is the regression guard for Allreduce's
// internal broadcast tag: back-to-back Allreduce / Bcast(nonzero root)
// pairs with no intervening synchronization must never cross payloads,
// which requires the internal broadcast to run under its own tag rather
// than aliasing tagBcast (whose tree shape differs per root).
func TestAllreduceBcastInterleaving(t *testing.T) {
	const rounds = 24
	for _, p := range []int{2, 3, 4, 7, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runWorld(t, p, func(r *Rank) {
				for i := 0; i < rounds; i++ {
					sum := r.Allreduce(OpSum, []float64{float64(r.ID() + i)})
					want := float64(p*i) + float64(p*(p-1))/2
					if sum[0] != want {
						t.Errorf("rank %d round %d allreduce = %v, want %v", r.ID(), i, sum[0], want)
					}
					root := (i + 1) % p // nonzero roots included
					var data []byte
					if r.ID() == root {
						data = []byte{byte(root), byte(i)}
					}
					got := r.Bcast(root, data)
					if len(got) != 2 || got[0] != byte(root) || got[1] != byte(i) {
						t.Errorf("rank %d round %d bcast got %v", r.ID(), i, got)
					}
				}
			})
		})
	}
}

// testF64s returns k values of widely varying magnitude and sign (so a sum
// depends on its order), with the awkward values a codec must carry bit
// for bit: signed zeros, infinities, a NaN and a subnormal.
func testF64s(seed uint64, k int) []float64 {
	rng := sim.NewRNG(seed)
	out := make([]float64, k)
	for i := range out {
		out[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
	}
	special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}
	for i, v := range special {
		if j := int(seed)*len(special) + i; j < k {
			out[j%k] = v
		}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDecodeF64sMatchesBytesToF64s: decoding into a caller's buffer gives
// the allocating decoder's values bit for bit, reuses a buffer that is
// long enough (no allocation), and grows one that is short.
func TestDecodeF64sMatchesBytesToF64s(t *testing.T) {
	vals := testF64s(0, 100)
	b := F64sToBytes(vals)
	want := BytesToF64s(b)
	if !sameBits(want, vals) {
		t.Fatal("BytesToF64s(F64sToBytes(v)) changed a value")
	}
	buf := make([]float64, 7, 128)
	got := DecodeF64s(buf, b)
	if !sameBits(got, want) || &got[0] != &buf[0] {
		t.Fatalf("DecodeF64s into a long enough buffer: same bits %v, same storage %v", sameBits(got, want), &got[0] == &buf[0])
	}
	if allocs := testing.AllocsPerRun(20, func() { DecodeF64s(buf, b) }); allocs != 0 {
		t.Errorf("DecodeF64s into a long enough buffer allocated %.0f times", allocs)
	}
	if got := DecodeF64s(make([]float64, 3), b); !sameBits(got, want) {
		t.Error("DecodeF64s into a short buffer lost values")
	}
}

// reduceAllocating is Reduce's former combine, which decoded both operands
// into fresh slices and re-encoded the result: the in-place combine must
// match it bit for bit, message for message.
func reduceAllocating(r *Rank, op ReduceOp, data []float64) []float64 {
	out := r.gatherTree(tagReduce, F64sToBytes(data), func(a, b []byte) []byte {
		av, bv := BytesToF64s(a), BytesToF64s(b)
		for i := range av {
			av[i] = op(av[i], bv[i])
		}
		return F64sToBytes(av)
	})
	if r.id != 0 {
		return nil
	}
	return BytesToF64s(out)
}

// TestReduceInPlaceMatchesAllocating: for every operator and p ∈ {1, 3, 8},
// the in-place Reduce gives rank 0 the allocating path's values bit for
// bit over order-sensitive inputs, and the switch carries the same
// messages and bytes.
func TestReduceInPlaceMatchesAllocating(t *testing.T) {
	ops := map[string]ReduceOp{"sum": OpSum, "min": OpMin, "max": OpMax}
	for name, op := range ops {
		for _, p := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				var results [2][]float64
				var traffic [2][2]int64
				for i, reduce := range []func(*Rank, ReduceOp, []float64) []float64{(*Rank).Reduce, reduceAllocating} {
					w := runWorld(t, p, func(r *Rank) {
						if out := reduce(r, op, testF64s(uint64(r.ID()), 33)); r.ID() == 0 {
							results[i] = out
						}
					})
					traffic[i][0], traffic[i][1] = w.Switch().Stats().Snapshot()
				}
				if !sameBits(results[0], results[1]) {
					t.Errorf("in place %v, allocating %v", results[0], results[1])
				}
				if traffic[0] != traffic[1] {
					t.Errorf("in place moved %v (messages, bytes), allocating %v", traffic[0], traffic[1])
				}
			})
		}
	}
}

// TestMatchClearsVacatedSlot: taking a message out of the middle of the
// pending queue leaves no pointer to a delivered message in the queue's
// spare capacity.
func TestMatchClearsVacatedSlot(t *testing.T) {
	runWorld(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			for tag := 1; tag <= 3; tag++ {
				r.Send(1, tag, []byte{byte(tag)})
			}
			return
		}
		r.Recv(0, 3) // queues tags 1 and 2
		r.Recv(0, 1)
		if len(r.pending) != 1 {
			t.Fatalf("%d messages pending, want 1", len(r.pending))
		}
		for i, m := range r.pending[len(r.pending):cap(r.pending)] {
			if m != nil {
				t.Errorf("spare slot %d still holds the tag-%d message", i, m.Type)
			}
		}
		r.Recv(0, 2)
	})
}

// benchWorld runs body on every rank of an 8-rank world, timing only the
// loop body runs after the world is up.
func benchWorld(b *testing.B, body func(r *Rank)) {
	w := New(Config{Procs: 8})
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(body); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReduce: one 64-value float Reduce over 8 ranks per op. B/op
// counts every rank's allocations — the send payloads, the switch's
// messages, rank 0's result — and no decoded operand.
func BenchmarkReduce(b *testing.B) {
	benchWorld(b, func(r *Rank) {
		data := testF64s(uint64(r.ID()), 64)
		for i := 0; i < b.N; i++ {
			r.Reduce(OpSum, data)
		}
	})
}

// BenchmarkAllgather: one Allgather of 8 ranks' 96-value float blocks per
// op, decoded into a kept buffer, as Barnes and Water refresh positions.
func BenchmarkAllgather(b *testing.B) {
	benchWorld(b, func(r *Rank) {
		own := testF64s(uint64(r.ID()), 96)
		all := make([]float64, 8*96)
		for i := 0; i < b.N; i++ {
			DecodeF64s(all, r.Allgather(F64sToBytes(own)))
		}
	})
}
