package fft3d

import (
	"testing"

	"repro/internal/core"
)

// blockedTransposeProgram lays out a grid u, its transpose w and the
// staging blocks for procs threads on the SMP backend, with u filled.
func blockedTransposeProgram(n, procs int) (prog *core.Program, u, w core.Addr, xb *xferBlocks, slab func(int) (int, int)) {
	maxSlab := (n + procs - 1) / procs
	maxBlock := maxSlab * maxSlab * n
	prog = core.NewProgram(core.Config{Threads: procs, Backend: core.BackendSMP})
	u = prog.SharedPage(cBytes * n * n * n)
	w = prog.SharedPage(cBytes * n * n * n)
	xb = newXferBlocks(prog.SharedPage(blocksBytesNeeded(procs, maxBlock)), procs, maxBlock)
	slab = func(id int) (int, int) { return core.StaticBlock(0, n, id, procs) }
	return prog, u, w, xb, slab
}

func gridValue(i int) complex128 { return complex(float64(i), -0.5*float64(i)) }

// TestBlockedTransposeReusesScratch runs the blocked transpose forward and
// back with one scratch per thread for the whole run, on uneven slabs so
// the buffers are resized between blocks: w must equal the reference
// transpose of u, and the round trip must give u back.
func TestBlockedTransposeReusesScratch(t *testing.T) {
	const n, procs = 8, 3
	pts := n * n * n
	prog, u, w, xb, slab := blockedTransposeProgram(n, procs)
	defer prog.Close()
	scr := make([]scratch, procs)
	prog.RegisterRegion("fwd", func(tc *core.TC) {
		packForward(tc.Worker(), u, xb, tc.ThreadNum(), n, slab, &scr[tc.ThreadNum()])
		tc.Barrier()
		unpackForward(tc.Worker(), w, xb, tc.ThreadNum(), n, slab, &scr[tc.ThreadNum()])
	})
	prog.RegisterRegion("back", func(tc *core.TC) {
		packBackward(tc.Worker(), w, xb, tc.ThreadNum(), n, slab, &scr[tc.ThreadNum()])
		tc.Barrier()
		unpackBackward(tc.Worker(), u, xb, tc.ThreadNum(), n, slab, &scr[tc.ThreadNum()])
	})
	ref := make([]complex128, pts)
	for i := range ref {
		ref[i] = gridValue(i)
	}
	want := make([]complex128, pts)
	transpose(ref, want, n)
	err := prog.Run(func(m *core.MC) {
		var f []float64
		writeComplex(m.Worker(), u, ref, &f)
		m.Parallel("fwd", core.NoArgs())
		got := make([]complex128, pts)
		readComplex(m.Worker(), w, got, &f)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("forward transpose: w[%d] = %v, want %v", i, got[i], want[i])
			}
		}
		writeComplex(m.Worker(), u, make([]complex128, pts), &f)
		m.Parallel("back", core.NoArgs())
		readComplex(m.Worker(), u, got, &f)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("round trip: u[%d] = %v, want %v", i, got[i], ref[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTransposeBlock moves one thread's share of a blocked transpose
// (pack every destination block, unpack every source block) through the
// helpers with a warm scratch: B/op is what the helpers allocate per
// transpose, zero once the buffers have grown.
func BenchmarkTransposeBlock(b *testing.B) {
	const n, procs = 32, 4
	prog, u, w, xb, slab := blockedTransposeProgram(n, procs)
	defer prog.Close()
	err := prog.Run(func(m *core.MC) {
		var sc scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			packForward(m.Worker(), u, xb, 0, n, slab, &sc)
			unpackForward(m.Worker(), w, xb, 0, n, slab, &sc)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
