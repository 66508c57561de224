// Quickstart: a parallel dot product in ~40 lines — the SAME source run
// three times: on the simulated network of workstations (TreadMarks), on
// hardware shared memory (goroutines), and on a hybrid NOW of SMP
// islands, selected purely by core.Config.Backend. That is the paper's
// thesis as an API: a portable directive program whose execution
// substrate is a configuration knob.
//
// The program follows the paper's model: variables default to PRIVATE
// (plain Go locals); anything shared is explicitly allocated with
// Shared/SharedPage; a `parallel do` region statically splits the
// iteration space; a reduction combines per-thread partial sums.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

const n = 1 << 16

func dot(backend core.BackendKind) {
	prog := core.NewProgram(core.Config{Threads: 8, Backend: backend})

	// shared(x, y): two vectors in the shared address space.
	x := prog.SharedPage(8 * n)
	y := prog.SharedPage(8 * n)
	sum := prog.NewReduction(core.OpSum)

	// parallel do: each thread initializes and multiplies its own block.
	prog.RegisterDo("dot", func(tc *core.TC, lo, hi int) {
		var local float64 // private by default — just a Go local
		buf := make([]float64, hi-lo)
		tc.ReadF64s(x+core.Addr(8*lo), buf)
		buf2 := make([]float64, hi-lo)
		tc.ReadF64s(y+core.Addr(8*lo), buf2)
		for i := range buf {
			local += buf[i] * buf2[i]
		}
		tc.Compute(2 * float64(hi-lo)) // charge the virtual cost
		sum.Reduce(tc, local)
	})

	err := prog.Run(func(m *core.MC) {
		// Sequential section: the master initializes the vectors.
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i % 100)
			ys[i] = 2
		}
		m.WriteF64s(x, xs)
		m.WriteF64s(y, ys)

		sum.Reset(&m.TC)
		m.ParallelDo("dot", 0, n, core.NoArgs())

		fmt.Printf("[%s] dot(x, y)     = %.0f\n", backend, sum.Value(&m.TC))
		fmt.Printf("[%s] virtual time  = %s\n", backend, m.Now())
	})
	if err != nil {
		log.Fatal(err)
	}
	r := prog.Report()
	fmt.Printf("[%s] protocol cost = %d messages, %d bytes\n", backend, r.Messages, r.Bytes)
}

func main() {
	dot(core.BackendNOW)       // TreadMarks on the simulated NOW
	dot(core.BackendSMP)       // the same source on hardware shared memory
	dot(core.HybridIslands(2)) // and on a NOW of two SMP islands
}
