// Taskqueue: the paper's Figure 4 — a work queue protected by a critical
// section with a condition variable for blocking instead of busy-waiting —
// exactly the construct QSORT uses. Workers pull integer tasks, "process"
// them, and occasionally generate follow-up tasks; termination is the
// nwait == nthreads broadcast from Figure 4.
//
//	go run ./examples/taskqueue
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

const (
	initialTasks = 24
	threads      = 6
	lockName     = "queue"
	condID       = 0
)

func main() {
	prog := core.NewProgram(core.Config{Threads: threads})
	head := prog.SharedPage(8)
	tail := prog.Shared(8)
	nwait := prog.Shared(8)
	ring := prog.SharedPage(8 * 1024)
	results := prog.SharedPage(8 * 1024)
	lockID := core.CriticalLockID(lockName)

	enqueue := func(nd core.Worker, v int64) {
		t := nd.ReadI64(tail)
		nd.WriteI64(ring+core.Addr(8*(t%1024)), v)
		nd.WriteI64(tail, t+1)
	}

	prog.RegisterRegion("workers", func(tc *core.TC) {
		nd := tc.Worker()
		for {
			var task int64 = -1
			nd.Acquire(lockID)
			for {
				h, t := nd.ReadI64(head), nd.ReadI64(tail)
				if h < t {
					task = nd.ReadI64(ring + core.Addr(8*(h%1024)))
					nd.WriteI64(head, h+1)
					break
				}
				nw := nd.ReadI64(nwait) + 1
				nd.WriteI64(nwait, nw)
				if nw == threads {
					nd.CondBroadcast(condID, lockID) // Figure 4: end of program
					break
				}
				nd.CondWait(condID, lockID)
				if nd.ReadI64(nwait) == threads {
					break
				}
				nd.WriteI64(nwait, nd.ReadI64(nwait)-1)
			}
			nd.Release(lockID)
			if task < 0 {
				return
			}

			// "Process" the task and record the result.
			tc.Compute(50_000)
			nd.WriteI64(results+core.Addr(8*task), task*task)

			// Every third task spawns a child (EnQueue from Figure 4).
			if task < initialTasks && task%3 == 0 {
				child := initialTasks + task/3
				nd.Acquire(lockID)
				enqueue(nd, child)
				if nd.ReadI64(nwait) > 0 {
					nd.CondSignal(condID, lockID)
				}
				nd.Release(lockID)
			}
		}
	})

	err := prog.Run(func(m *core.MC) {
		for i := int64(0); i < initialTasks; i++ {
			enqueue(m.Worker(), i)
		}
		m.Parallel("workers", core.NoArgs())

		done := 0
		for i := int64(0); i < 1024; i++ {
			if m.ReadI64(results+core.Addr(8*i)) == i*i && i > 0 {
				done++
			}
		}
		fmt.Printf("processed %d tasks (including spawned children)\n", done)
		fmt.Printf("virtual time: %s\n", m.Now())
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("messages: %d — no busy-waiting, every idle thread slept on the condition variable\n", prog.Report().Messages)
}
