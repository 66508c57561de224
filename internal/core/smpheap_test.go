package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The shared heap holds only what was allocated: Malloc extends it,
// HeapBytes bounds it, and an access past the last allocation panics on
// every DSM-backed backend, omp-smp's one-island system included.

// panicText runs f and returns what it panicked with ("" if it returned).
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestSMPHeapAccessPastLastAllocationPanics(t *testing.T) {
	for _, bk := range []BackendKind{BackendSMP, BackendNOW} {
		p := NewProgram(Config{Threads: 2, Backend: bk})
		defer p.Close()
		a := p.SharedPage(8)
		b := p.Shared(16)
		end := b + 16
		p.RegisterRegion("edge", func(tc *TC) {
			if tc.ThreadNum() != 0 {
				return
			}
			tc.WriteI64(a, 1)
			tc.WriteI64(end-8, 2) // the last allocated word
			var one [1]byte
			tc.Worker().ReadBytes(end, one[:]) // one byte past it
		})
		err := p.Run(func(m *MC) { m.Parallel("edge", NoArgs()) })
		if err == nil || !strings.Contains(err.Error(), "outside shared heap") {
			t.Fatalf("%s: access one byte past the last allocation: err = %v, want \"outside shared heap\"", bk, err)
		}
	}
}

func TestSMPHeapExhaustedPanics(t *testing.T) {
	p := NewProgram(Config{Threads: 1, Backend: BackendSMP, HeapBytes: 2 * PageSize})
	defer p.Close()
	p.SharedPage(PageSize)
	p.Shared(PageSize) // fills the bound exactly
	if msg := panicText(func() { p.Shared(8) }); !strings.Contains(msg, "heap exhausted") {
		t.Fatalf("Malloc past HeapBytes: panic %q, want \"heap exhausted\"", msg)
	}
}

// TestSMPMallocInsideRunMatchesNOW: a thread may allocate inside a region
// on omp-smp as on the NOW. It writes the new block and publishes its
// address; after the join the master finds the same address and value on
// both backends.
func TestSMPMallocInsideRunMatchesNOW(t *testing.T) {
	type got struct{ addr, val int64 }
	run := func(bk BackendKind) got {
		p := NewProgram(Config{Threads: 2, Backend: bk})
		defer p.Close()
		cell := p.Shared(8)
		p.RegisterRegion("alloc", func(tc *TC) {
			if tc.ThreadNum() == 1 {
				a := p.Shared(8)
				tc.WriteI64(a, 42)
				tc.WriteI64(cell, int64(a))
			}
		})
		var g got
		if err := p.Run(func(m *MC) {
			m.Parallel("alloc", NoArgs())
			g.addr = m.ReadI64(cell)
			g.val = m.ReadI64(Addr(g.addr))
		}); err != nil {
			t.Fatalf("%s: Malloc inside a region: %v", bk, err)
		}
		return g
	}
	smp, now := run(BackendSMP), run(BackendNOW)
	if smp.val != 42 || smp != now {
		t.Errorf("block allocated inside a region: omp-smp %+v, NOW %+v, want equal with value 42", smp, now)
	}
}

// TestSMPHeapGrowsWithAllocations: a program with one small allocation,
// run to completion, allocates a few pages of host memory, not the 64 MiB
// default bound.
func TestSMPHeapGrowsWithAllocations(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	smpRunOneWord()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("omp-smp program with one 8-byte allocation allocated %d bytes, want < 1 MiB", d)
	}
}

// smpRunOneWord builds an 8-thread omp-smp program with one 8-byte shared
// allocation, runs a master that writes it, and closes the program.
func smpRunOneWord() {
	p := NewProgram(Config{Threads: 8, Backend: BackendSMP})
	a := p.SharedPage(8)
	if err := p.Run(func(m *MC) { m.WriteI64(a, 1) }); err != nil {
		panic(err)
	}
	p.Close()
}

// BenchmarkNewProgramSMP is the per-job lifecycle of an omp-smp program
// in service mode: build, one 8-byte shared allocation, Run, Close.
func BenchmarkNewProgramSMP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		smpRunOneWord()
	}
}
