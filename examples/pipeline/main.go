// Pipeline: the paper's Section 3.2 producer/consumer example, run both
// ways — Figure 1 (flush + busy-wait flags) against Figure 3 (the
// proposed semaphores) — demonstrating why the paper removes flush from
// the standard: 2(n-1) messages and interrupted bystanders versus a
// constant-cost signal.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

const rounds = 25

func main() {
	flushTime, flushMsgs := runFlush()
	semaTime, semaMsgs := runSema()

	fmt.Println("producer/consumer pipeline, 25 rounds, 8 workstations")
	fmt.Printf("  Figure 1 (flush + busy-wait) : %-10s %5d messages\n", flushTime, flushMsgs)
	fmt.Printf("  Figure 3 (semaphores)        : %-10s %5d messages\n", semaTime, semaMsgs)
	fmt.Printf("  semaphores are %.1fx faster with %.1fx fewer messages\n",
		flushTime.Seconds()/semaTime.Seconds(), float64(flushMsgs)/float64(semaMsgs))
}

func runFlush() (t interface{ Seconds() float64 }, msgs int64) {
	prog := core.NewProgram(core.Config{Threads: 8})
	data := prog.SharedPage(8)
	avail := prog.SharedPage(8)
	done := prog.SharedPage(8)
	prog.RegisterRegion("flush-pipe", func(tc *core.TC) {
		nd := tc.Worker()
		switch tc.ThreadNum() {
		case 0:
			for i := 1; i <= rounds; i++ {
				nd.WriteI64(data, int64(i*i))
				nd.WriteI64(avail, int64(i))
				tc.Flush()
				for nd.ReadI64(done) != int64(i) {
					nd.Poll()
				}
			}
		case 1:
			for i := 1; i <= rounds; i++ {
				for nd.ReadI64(avail) != int64(i) {
					nd.Poll()
				}
				_ = nd.ReadI64(data)
				nd.WriteI64(done, int64(i))
				tc.Flush()
			}
		default:
			// The other six threads just compute — and get interrupted
			// by every flush anyway.
			tc.Compute(float64(rounds) * 2000)
		}
	})
	if err := prog.Run(func(m *core.MC) { m.Parallel("flush-pipe", core.NoArgs()) }); err != nil {
		log.Fatal(err)
	}
	return prog.Elapsed(), prog.Report().Messages
}

func runSema() (t interface{ Seconds() float64 }, msgs int64) {
	prog := core.NewProgram(core.Config{Threads: 8})
	data := prog.SharedPage(8)
	const semAvail, semDone = 1, 2
	prog.RegisterRegion("sema-pipe", func(tc *core.TC) {
		nd := tc.Worker()
		switch tc.ThreadNum() {
		case 0:
			for i := 1; i <= rounds; i++ {
				nd.WriteI64(data, int64(i*i))
				tc.SemaSignal(semAvail)
				tc.SemaWait(semDone)
			}
		case 1:
			for i := 1; i <= rounds; i++ {
				tc.SemaWait(semAvail)
				_ = nd.ReadI64(data)
				tc.SemaSignal(semDone)
			}
		default:
			tc.Compute(float64(rounds) * 2000)
		}
	})
	if err := prog.Run(func(m *core.MC) { m.Parallel("sema-pipe", core.NoArgs()) }); err != nil {
		log.Fatal(err)
	}
	return prog.Elapsed(), prog.Report().Messages
}
