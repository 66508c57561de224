package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
)

// Reductions combine at the join: each thread's partial rides its join and
// the master folds the contributions in thread order 0…P−1. The tests below
// pin the semantics (bitwise, on every backend), the cost on the NOW (a
// reduction region costs the empty fork/join plus its tail bytes), and what
// the master may do outside regions.

// redInput is thread t's k-th value: non-integer and spread over sixteen
// orders of magnitude, so a sum's bits depend on the fold order.
func redInput(t, k int) float64 {
	return 1/float64(t+3) + float64((t+k)%3)*1e15 + float64(k)/7
}

// redCalls is how many times thread t calls Reduce: twice on even threads
// (they fold locally), never on thread 2 (it contributes nothing), once on
// the rest.
func redCalls(t int) int {
	switch {
	case t == 2:
		return 0
	case t%2 == 0:
		return 2
	}
	return 1
}

// wantThreadOrder folds the threads' partials into an identity accumulator
// in thread order: what every backend must reproduce to the bit.
func wantThreadOrder(op ReduceOp, procs int, val func(t, k int) float64) float64 {
	acc := op.identity()
	for t := 0; t < procs; t++ {
		if redCalls(t) == 0 {
			continue
		}
		part := val(t, 0)
		for k := 1; k < redCalls(t); k++ {
			part = op.combine(part, val(t, k))
		}
		acc = op.combine(acc, part)
	}
	return acc
}

// reductionScenario runs sum/prod/min/max and an array reduction, twice,
// with uneven per-thread call counts, plus a master fold outside any
// region; it returns every result's bits.
func reductionScenario(t *testing.T, bk BackendKind, procs int) []uint64 {
	const N = 5
	ops := []ReduceOp{OpSum, OpProd, OpMin, OpMax}
	p := NewProgram(Config{Threads: procs, Backend: bk})
	defer p.Close()
	reds := make([]*Reduction, len(ops))
	for i, op := range ops {
		reds[i] = p.NewReduction(op)
	}
	arr := p.NewArrayReduction(OpSum, N)
	p.RegisterRegion("reds", func(tc *TC) {
		me := tc.ThreadNum()
		for k := 0; k < redCalls(me); k++ {
			for _, r := range reds {
				r.Reduce(tc, redInput(me, k))
			}
			local := make([]float64, N)
			for i := range local {
				local[i] = redInput(me+i, k)
			}
			arr.Reduce(tc, local)
		}
	})
	var out []uint64
	collect := func(m *MC) {
		for _, r := range reds {
			out = append(out, math.Float64bits(r.Value(&m.TC)))
		}
		got := make([]float64, N)
		arr.Value(&m.TC, got)
		for _, v := range got {
			out = append(out, math.Float64bits(v))
		}
	}
	if err := p.Run(func(m *MC) {
		for rep := 0; rep < 2; rep++ {
			for _, r := range reds {
				r.Reset(&m.TC)
			}
			arr.Reset(&m.TC)
			m.Parallel("reds", NoArgs())
			collect(m)
		}
		// The master outside any region folds straight into the
		// accumulator, after the join's fold.
		reds[0].Reduce(&m.TC, 0.3)
		out = append(out, math.Float64bits(reds[0].Value(&m.TC)))
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReductionThreadOrderFold: every backend — the NOW, the SMP and the
// hybrid at islands {1, 2, procs} — folds the same contributions in thread
// order, so every value matches the sequential thread-order fold to the bit;
// a thread that calls Reduce twice folds locally first, and one that never
// calls it contributes the identity. Partials never outlive their region: a
// second invocation after Reset repeats the first.
func TestReductionThreadOrderFold(t *testing.T) {
	const procs = 7
	var want []uint64
	for _, op := range []ReduceOp{OpSum, OpProd, OpMin, OpMax} {
		want = append(want, math.Float64bits(wantThreadOrder(op, procs, redInput)))
	}
	for i := 0; i < 5; i++ {
		want = append(want, math.Float64bits(wantThreadOrder(OpSum, procs, func(t, k int) float64 {
			return redInput(t+i, k)
		})))
	}
	want = append(want, want...)
	want = append(want, math.Float64bits(math.Float64frombits(want[0])+0.3))
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		if got := reductionScenario(t, bk, procs); !reflect.DeepEqual(got, want) {
			t.Errorf("reduction bits %x, want the thread-order fold %x", got, want)
		}
	})
}

// TestReductionCostsAJoin pins the price of a reduction on the NOW at the
// paper's machine size and past it: Reset; Parallel(reduce); Value costs
// the empty fork/join plus the join tails' bytes on the wire — one
// uvarint id and one float64 a thread — plus the master's fold, one op per
// contributed value, to the nanosecond. The region moves exactly one fork
// and one join per slave, and nobody takes a lock.
func TestReductionCostsAJoin(t *testing.T) {
	plat := sim.DefaultPlatform()
	const tail = 1 + 8
	for _, procs := range []int{8, 64} {
		t.Run(fmt.Sprintf("p%d", procs), func(t *testing.T) {
			p := NewProgram(Config{Threads: procs})
			defer p.Close()
			sum := p.NewReduction(OpSum)
			// Names of one length: the two regions' forks are the same size.
			p.RegisterRegion("empty", func(*TC) {})
			p.RegisterRegion("total", func(tc *TC) { sum.Reduce(tc, 1) })
			var empty, reduce sim.Time
			var emptyBytes, reduceMsgs, reduceBytes int64
			var value float64
			st := p.sys.Switch().Stats()
			perType := func() (counts []int64) {
				for typ := 0; typ < network.MaxType; typ++ {
					m, _ := st.ByType(typ)
					counts = append(counts, m)
				}
				return counts
			}
			types := make([]int64, network.MaxType)
			if err := p.Run(func(m *MC) {
				m.Parallel("empty", NoArgs()) // every slave parked, clocks behind the master
				r0 := p.Report()
				t0 := m.Now()
				m.Parallel("empty", NoArgs())
				empty = m.Now() - t0
				r1 := p.Report()
				emptyBytes = r1.Bytes - r0.Bytes
				before := perType()
				t1 := m.Now()
				sum.Reset(&m.TC)
				m.Parallel("total", NoArgs())
				value = sum.Value(&m.TC)
				reduce = m.Now() - t1
				r2 := p.Report()
				reduceMsgs, reduceBytes = r2.Messages-r1.Messages, r2.Bytes-r1.Bytes
				for typ, n := range perType() {
					types[typ] = n - before[typ]
				}
			}); err != nil {
				t.Fatal(err)
			}
			if value != float64(procs) {
				t.Fatalf("reduction gave %v, want %d", value, procs)
			}
			want := empty + sim.Time(tail*plat.UDP.PerByteNS) + plat.ComputeCost(float64(procs))
			if reduce != want {
				t.Errorf("reduction region cost %d ns, want empty fork/join %d + tail %d B + fold = %d ns",
					reduce, empty, tail, want)
			}
			if reduceMsgs != int64(2*(procs-1)) || reduceBytes != emptyBytes+int64(tail*(procs-1)) {
				t.Errorf("reduction region moved %d msgs / %d B, want %d / %d",
					reduceMsgs, reduceBytes, 2*(procs-1), emptyBytes+int64(tail*(procs-1)))
			}
			for typ, n := range types {
				if n != 0 && n != int64(procs-1) {
					t.Errorf("message type %d sent %d times, want one fork and one join a slave", typ, n)
				}
			}
			if got := p.sys.TotalStats().LockAcquires; got != 0 {
				t.Errorf("%d lock acquires, want none", got)
			}
		})
	}
}

// TestReductionMasterOnlyOutsideRegions: Reset and Value act on the
// master's accumulator between regions; a region thread calling them is a
// programming error, caught on every backend.
func TestReductionMasterOnlyOutsideRegions(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		p := NewProgram(Config{Threads: 2, Backend: bk})
		defer p.Close()
		sum := p.NewReduction(OpSum)
		p.RegisterRegion("peek", func(tc *TC) { sum.Value(tc) })
		if err := p.Run(func(m *MC) { m.Parallel("peek", NoArgs()) }); err == nil {
			t.Error("Value inside a region returned instead of failing the run")
		}
	})
}
