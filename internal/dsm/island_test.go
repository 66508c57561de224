package dsm

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// islandSystem builds a system whose node i has a team of sizes[i]
// clients, each with its own clock, and returns them in thread order.
func islandSystem(sizes ...int) (*System, []*Client) {
	sys := New(Config{Procs: len(sizes)})
	var team []*Client
	for i, k := range sizes {
		clks := make([]sim.Clock, k)
		for j := range clks {
			team = append(team, sys.Node(i).NewClient(&clks[j], ClientCosts{}))
		}
	}
	return sys, team
}

// TestIslandForkJoin: a region runs once on every team thread, numbered in
// node order; each island-mate starts at the island's fork time — the
// master's clock after the fork dispatch (SMPFork) on island 0 — and the
// join returns every thread's result, island by island in thread order,
// with the master's clock at the last thread's finish.
func TestIslandForkJoin(t *testing.T) {
	sys, team := islandSystem(3, 2)
	defer sys.Close()
	plat := sys.Platform()
	const t0 = 5 * sim.Microsecond
	starts := make([]sim.Time, len(team))
	sys.RegisterTail("ids", func(c *Client, _ []byte) []byte {
		if c.NumProcs() != len(team) {
			t.Errorf("thread %d: NumProcs = %d, want %d", c.ID(), c.NumProcs(), len(team))
		}
		starts[c.ID()] = c.Now()
		c.Charge(sim.Time(c.ID()+1) * sim.Microsecond)
		return []byte{byte(c.ID())}
	})
	var tails [][]byte
	var end sim.Time
	err := sys.Run(func(*Node) {
		m := team[0]
		m.Charge(t0)
		tails = m.RunParallel("ids", nil)
		end = m.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]byte{{0, 1, 2}, {3, 4}}; !slices.EqualFunc(tails, want, slices.Equal) {
		t.Errorf("RunParallel returned %v, want %v", tails, want)
	}
	for id := range 3 {
		if starts[id] != t0+plat.SMPFork {
			t.Errorf("island 0 thread %d started at %v, want the fork time %v", id, starts[id], t0+plat.SMPFork)
		}
	}
	if starts[3] != starts[4] || starts[3] <= t0+plat.SMPFork {
		t.Errorf("island 1 threads started at %v and %v, want one time after the fork message's arrival", starts[3], starts[4])
	}
	last := starts[4] + 5*sim.Microsecond
	if end < last {
		t.Errorf("master ended the join at %v, before island 1's last thread finished at %v", end, last)
	}
	if got := sys.MaxClock(); got != end {
		t.Errorf("MaxClock = %v, want the master's clock %v", got, end)
	}
}

// TestIslandBarrier: a one-island team's barrier releases every thread at
// the latest arrival plus the island's broadcast (SMPBarrier), and makes
// each thread's writes visible to the others, episode after episode.
func TestIslandBarrier(t *testing.T) {
	const threads, rounds = 3, 4
	sys, team := islandSystem(threads)
	defer sys.Close()
	plat := sys.Platform()
	a := sys.MallocPage(8 * threads)
	var arrive, leave [rounds][threads]sim.Time
	sys.RegisterTail("rounds", func(c *Client, _ []byte) []byte {
		id := c.ID()
		for r := range rounds {
			c.Charge(sim.Time((id+r)%threads+1) * sim.Microsecond)
			c.WriteI64(a+Addr(8*id), int64(r))
			arrive[r][id] = c.Now()
			c.Barrier()
			leave[r][id] = c.Now()
			for j := range threads {
				if got := c.ReadI64(a + Addr(8*j)); got != int64(r) {
					t.Errorf("round %d: thread %d read %d from thread %d", r, id, got, j)
				}
			}
			c.Barrier() // nobody writes round r+1 before everyone read round r
		}
		return nil
	})
	if err := sys.Run(func(*Node) { team[0].RunParallel("rounds", nil) }); err != nil {
		t.Fatal(err)
	}
	for r := range rounds {
		want := slices.Max(arrive[r][:]) + plat.SMPBarrier
		for id, got := range leave[r] {
			if got != want {
				t.Errorf("round %d: thread %d left at %v, want the latest arrival + SMPBarrier = %v", r, id, got, want)
			}
		}
	}
}

// TestIslandMatePanicEndsRun: a panic on an island-mate's goroutine ends
// the run with that error instead of leaving the island's join waiting.
func TestIslandMatePanicEndsRun(t *testing.T) {
	sys, team := islandSystem(2, 2)
	defer sys.Close()
	sys.RegisterTail("boom", func(c *Client, _ []byte) []byte {
		if c.ID() == 3 {
			panic("mate 3 failed")
		}
		c.Barrier()
		return nil
	})
	err := sys.Run(func(*Node) { team[0].RunParallel("boom", nil) })
	if err == nil || !strings.Contains(err.Error(), "mate 3 failed") {
		t.Fatalf("Run returned %v, want the mate's panic", err)
	}
}
