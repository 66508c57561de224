package dsm

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// gcWorkload runs an iteration-style workload (the access pattern of the
// barrier apps): each round every node rewrites its block of a multi-page
// shared array, synchronizes at a barrier, then reads a neighbour's block
// — forcing write notices, diffs, and twins to flow every epoch. It
// returns the system so callers can inspect protocol counters. The
// collector, when on, runs at every episode that retires anything
// (GCPressure: 1): these runs are far too short to reach the default
// pressure threshold.
func gcWorkload(t *testing.T, procs, words, rounds int, disableGC bool) *System {
	t.Helper()
	return gcWorkloadCfg(t, Config{Procs: procs, DisableGC: disableGC, GCPressure: 1}, words, rounds)
}

func gcWorkloadCfg(t *testing.T, cfg Config, words, rounds int) *System {
	t.Helper()
	procs := cfg.Procs
	sys := New(cfg)
	base := sys.MallocPage(8 * words)
	per := words / procs
	sys.Register("iterate", func(n *Node, _ []byte) {
		me := n.ID()
		for r := 0; r < rounds; r++ {
			for w := me * per; w < (me+1)*per; w++ {
				n.WriteI64(base+Addr(8*w), int64(r*1_000_000+w))
			}
			n.Barrier()
			nb := (me + 1) % procs
			for w := nb * per; w < (nb+1)*per; w++ {
				if got := n.ReadI64(base + Addr(8*w)); got != int64(r*1_000_000+w) {
					t.Errorf("node %d round %d word %d = %d, want %d", me, r, w, got, r*1_000_000+w)
				}
			}
			n.Barrier()
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("iterate", nil) }); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestGCRetiresMetadata asserts the collector actually reclaims interval
// records, twins, and diffs on the workload it exists for.
func TestGCRetiresMetadata(t *testing.T) {
	sys := gcWorkload(t, 4, 2048, 12, false)
	st := sys.TotalStats()
	if st.GCEpochs == 0 {
		t.Fatal("no GC epochs ran")
	}
	if st.IntervalsRetired == 0 {
		t.Error("GC retired no interval records")
	}
	if st.PeakIntervalChain == 0 {
		t.Error("peak interval chain never tracked")
	}
	if st.PeakProtoBytes == 0 {
		t.Error("peak protocol bytes never tracked")
	}
	for i := 0; i < sys.Procs(); i++ {
		if nst := sys.Node(i).Stats(); nst.ProtoBytes >= nst.PeakProtoBytes {
			t.Errorf("node %d: final footprint %d not below its peak %d despite retirement", i, nst.ProtoBytes, nst.PeakProtoBytes)
		}
	}
}

// TestGCBoundsChainLength is the load-bearing property: with the
// collector on, the peak retained interval-chain length must NOT grow
// with the iteration count (it is bounded by the two live epochs), while
// with the collector off it grows linearly.
func TestGCBoundsChainLength(t *testing.T) {
	const procs, words = 4, 2048
	shortOn := gcWorkload(t, procs, words, 8, false).TotalStats()
	longOn := gcWorkload(t, procs, words, 32, false).TotalStats()
	if longOn.PeakIntervalChain > shortOn.PeakIntervalChain+2 {
		t.Errorf("GC on: peak chain grew with iterations: %d rounds -> %d, %d rounds -> %d",
			8, shortOn.PeakIntervalChain, 32, longOn.PeakIntervalChain)
	}

	shortOff := gcWorkload(t, procs, words, 8, true).TotalStats()
	longOff := gcWorkload(t, procs, words, 32, true).TotalStats()
	if shortOff.IntervalsRetired != 0 || longOff.IntervalsRetired != 0 {
		t.Errorf("GC off still retired intervals: %d, %d", shortOff.IntervalsRetired, longOff.IntervalsRetired)
	}
	if longOff.PeakIntervalChain < 2*shortOff.PeakIntervalChain {
		t.Errorf("GC off: expected linear chain growth, got %d rounds -> %d, %d rounds -> %d",
			8, shortOff.PeakIntervalChain, 32, longOff.PeakIntervalChain)
	}
	if longOn.PeakIntervalChain >= longOff.PeakIntervalChain {
		t.Errorf("GC on peak chain (%d) not below GC off (%d)", longOn.PeakIntervalChain, longOff.PeakIntervalChain)
	}
	if longOn.PeakProtoBytes >= longOff.PeakProtoBytes {
		t.Errorf("GC on peak footprint (%d) not below GC off (%d)", longOn.PeakProtoBytes, longOff.PeakProtoBytes)
	}
}

// TestGCWithLocksBetweenBarriers mixes lock-ordered updates (which close
// intervals mid-epoch and make nodes exchange deltas outside the barrier)
// with barrier phases, across enough epochs for records created under
// locks to be retired. The lock-protected counter and the scattered
// array must both survive collection intact.
func TestGCWithLocksBetweenBarriers(t *testing.T) {
	const P = 4
	const rounds = 10
	sys := New(Config{Procs: P, GCPressure: 1})
	ctr := sys.MallocPage(8)
	arr := sys.MallocPage(8 * P)
	sys.Register("mixed", func(n *Node, _ []byte) {
		for r := 0; r < rounds; r++ {
			n.Acquire(1)
			n.WriteI64(ctr, n.ReadI64(ctr)+1)
			n.Release(1)
			n.WriteI64(arr+Addr(8*n.ID()), int64(100*r+n.ID()))
			n.Barrier()
			var s int64
			for i := 0; i < P; i++ {
				s += n.ReadI64(arr + Addr(8*i))
			}
			if want := int64(100*r*P + P*(P-1)/2); s != want {
				t.Errorf("node %d round %d sum = %d, want %d", n.ID(), r, s, want)
			}
			n.Barrier()
		}
	})
	err := sys.Run(func(n *Node) {
		n.RunParallel("mixed", nil)
		if got := n.ReadI64(ctr); got != P*rounds {
			t.Errorf("counter = %d, want %d", got, P*rounds)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.TotalStats(); st.IntervalsRetired == 0 {
		t.Error("mixed workload retired no intervals")
	}
}

// TestGCOnOffIdenticalContents runs the same deterministic workload with
// the collector on and off and requires bit-identical final memory — the
// collector must be invisible to the computation.
func TestGCOnOffIdenticalContents(t *testing.T) {
	run := func(disable bool) []int64 {
		const P = 4
		const words = 1024
		sys := New(Config{Procs: P, DisableGC: disable})
		base := sys.MallocPage(8 * words)
		out := make([]int64, words)
		sys.Register("rounds", func(n *Node, _ []byte) {
			for r := 0; r < 6; r++ {
				for w := n.ID(); w < words; w += P {
					n.WriteI64(base+Addr(8*w), int64(r*7919+w*13+n.ID()))
				}
				n.Barrier()
			}
		})
		if err := sys.Run(func(n *Node) {
			n.RunParallel("rounds", nil)
			for w := 0; w < words; w++ {
				out[w] = n.ReadI64(base + Addr(8*w))
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	on, off := run(false), run(true)
	for w := range on {
		if on[w] != off[w] {
			t.Fatalf("word %d differs: GC on %d, GC off %d", w, on[w], off[w])
		}
	}
}

// TestGCFlushedPageRefetch drives the flush path explicitly: a node that
// never touches a page while it is repeatedly rewritten accumulates
// notices that GC discards together with the (never fetched) copy; a
// late read must still see the final contents via the manager's
// validated copy.
func TestGCFlushedPageRefetch(t *testing.T) {
	const P = 3
	const rounds = 6
	sys := New(Config{Procs: P, GCPressure: 1})
	a := sys.MallocPage(8)
	sys.Register("lateread", func(n *Node, _ []byte) {
		for r := 0; r < rounds; r++ {
			if n.ID() == 1 {
				n.WriteI64(a, int64(1000+r))
			}
			n.Barrier()
		}
		if n.ID() == 2 { // first touch after many retired epochs
			if got := n.ReadI64(a); got != int64(1000+rounds-1) {
				t.Errorf("late reader saw %d, want %d", got, 1000+rounds-1)
			}
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("lateread", nil) }); err != nil {
		t.Fatal(err)
	}
	if st := sys.TotalStats(); st.GCPagesFlushed == 0 {
		t.Error("expected at least one GC page flush")
	}
}

// TestConcurrentMallocPageAlignment hammers Malloc and MallocPage from
// many goroutines under the race detector: every MallocPage block must
// start on a page boundary (the fresh-page guarantee a TOCTOU between
// alignment and allocation used to break), and no two blocks of either
// kind may overlap.
func TestConcurrentMallocPageAlignment(t *testing.T) {
	sys := New(Config{Procs: 1})
	const goroutines = 16
	const allocs = 64
	type block struct {
		addr Addr
		size int
	}
	var mu sync.Mutex
	var pageBlocks, allBlocks []block
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < allocs; i++ {
				size := 3 + (g*allocs+i)%61 // odd sizes force mid-page heapNext
				if i%2 == 0 {
					a := sys.MallocPage(size)
					mu.Lock()
					pageBlocks = append(pageBlocks, block{a, size})
					allBlocks = append(allBlocks, block{a, size})
					mu.Unlock()
				} else {
					a := sys.Malloc(size)
					mu.Lock()
					allBlocks = append(allBlocks, block{a, size})
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, b := range pageBlocks {
		if int(b.addr)%PageSize != 0 {
			t.Errorf("MallocPage block at %d not page aligned", b.addr)
		}
	}
	sort.Slice(allBlocks, func(i, j int) bool { return allBlocks[i].addr < allBlocks[j].addr })
	for i := 1; i < len(allBlocks); i++ {
		prev, cur := allBlocks[i-1], allBlocks[i]
		if int(prev.addr)+prev.size > int(cur.addr) {
			t.Fatalf("blocks overlap: [%d,+%d) and [%d,+%d)", prev.addr, prev.size, cur.addr, cur.size)
		}
	}
	_ = sys.Run(func(n *Node) {})
}

// TestGCAdaptiveTrigger exercises a moderate pressure on a barrier-only
// program, where only the episode trigger can fire: the collector must
// examine every episode but run only a fraction of them, metadata must
// still be retired, and the retained chain must stay bounded by the
// threshold rather than the run length.
func TestGCAdaptiveTrigger(t *testing.T) {
	const procs, words = 4, 2048
	const pressure = 32 // ≈ eight rounds of global interval creation
	cfg := Config{Procs: procs, GCPressure: pressure}

	// Both runs span several trigger periods, so the one-epoch-delayed
	// free has retired metadata in each.
	short := gcWorkloadCfg(t, cfg, words, 32).TotalStats()
	long := gcWorkloadCfg(t, cfg, words, 64).TotalStats()

	for _, st := range []NodeStats{short, long} {
		if st.GCEpisodes == 0 {
			t.Fatal("adaptive collector examined no episodes")
		}
		if st.GCEpochs == 0 || st.GCEpochs >= st.GCEpisodes {
			t.Errorf("adaptive collector ran %d epochs over %d episodes; want a proper nonzero fraction",
				st.GCEpochs, st.GCEpisodes)
		}
		if st.IntervalsRetired == 0 {
			t.Error("adaptive collector retired nothing")
		}
	}
	// Chain length is bounded by the trigger threshold (plus the one-epoch
	// free delay), not the iteration count.
	if long.PeakIntervalChain > short.PeakIntervalChain+2 {
		t.Errorf("adaptive peak chain grew with iterations: 32 rounds -> %d, 64 rounds -> %d",
			short.PeakIntervalChain, long.PeakIntervalChain)
	}
	everyOn := gcWorkload(t, procs, words, 64, false).TotalStats()
	if long.GCEpochs >= everyOn.GCEpochs {
		t.Errorf("adaptive epochs (%d) not below every-episode epochs (%d)", long.GCEpochs, everyOn.GCEpochs)
	}
}

// TestGCAdaptiveIdenticalContents extends the GC-invisibility contract
// across pressures: the same deterministic workload must produce
// bit-identical final memory with the collector at every episode, at a
// moderate pressure, and off.
func TestGCAdaptiveIdenticalContents(t *testing.T) {
	run := func(cfg Config) []int64 {
		const words = 1024
		cfg.Procs = 4
		sys := New(cfg)
		base := sys.MallocPage(8 * words)
		out := make([]int64, words)
		sys.Register("rounds", func(n *Node, _ []byte) {
			for r := 0; r < 6; r++ {
				for w := n.ID(); w < words; w += 4 {
					n.WriteI64(base+Addr(8*w), int64(r*7919+w*13+n.ID()))
				}
				n.Barrier()
			}
		})
		if err := sys.Run(func(n *Node) {
			n.RunParallel("rounds", nil)
			for w := 0; w < words; w++ {
				out[w] = n.ReadI64(base + Addr(8*w))
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	every := run(Config{GCPressure: 1})
	adaptive := run(Config{GCPressure: 24})
	off := run(Config{DisableGC: true})
	for w := range every {
		if every[w] != adaptive[w] || every[w] != off[w] {
			t.Fatalf("word %d differs: every %d, adaptive %d, off %d", w, every[w], adaptive[w], off[w])
		}
	}
}

// TestGCPressureTrigger pins the default episode trigger — one pressure
// threshold for both triggers — on a loop where every node closes exactly
// one interval per barrier, so episode k's floor sums to 8k: the collecting
// episodes must be exactly those at which the floor has newly covered a
// threshold's worth of records since the last announced floor, on every
// node. Records retired at one collection are freed at the next — so no
// creator's chain outgrows two thresholds' worth — and GCPressure: 1
// collects at every barrier: no thread of this barrier-only program reports
// to the consensus, so only the episode trigger fires.
func TestGCPressureTrigger(t *testing.T) {
	const procs, rounds = 8, 100
	run := func(cfg Config) (collected [procs][]int, st NodeStats) {
		cfg.Procs = procs
		sys := New(cfg)
		a := sys.MallocPage(procs * PageSize)
		sys.Register("loop", func(n *Node, _ []byte) {
			me := n.ID()
			epochs := n.Stats().GCEpochs // the fork episode may have collected
			for k := 1; k <= rounds; k++ {
				n.WriteI64(a+Addr(me*PageSize), int64(k))
				n.Barrier()
				if now := n.Stats().GCEpochs; now != epochs {
					collected[me] = append(collected[me], k)
					epochs = now
				}
			}
		})
		if err := sys.Run(func(n *Node) { n.RunParallel("loop", nil) }); err != nil {
			t.Fatal(err)
		}
		return collected, sys.TotalStats()
	}

	threshold := Config{Procs: procs}.GCThreshold()
	if threshold != DefaultGCPressure {
		t.Fatalf("default threshold at %d nodes = %d, want %d", procs, threshold, DefaultGCPressure)
	}
	var want []int
	for k, last := 1, 0; k <= rounds; k++ {
		if sum := procs * k; sum-last >= threshold {
			want = append(want, k)
			last = sum
		}
	}
	if len(want) < 3 {
		t.Fatalf("test premise: %d rounds cross the threshold %d times, want >= 3", rounds, len(want))
	}
	collected, st := run(Config{})
	for id, got := range collected {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("node %d collected at barriers %v, want %v", id, got, want)
		}
	}
	if st.IntervalsRetired == 0 {
		t.Error("pressure-triggered collections retired nothing")
	}
	if bound := int64(2*threshold/procs + 2); st.PeakIntervalChain > bound {
		t.Errorf("peak chain %d above %d: a collection did not free what the previous one retired",
			st.PeakIntervalChain, bound)
	}

	every, est := run(Config{GCPressure: 1})
	for id, got := range every {
		if len(got) != rounds {
			t.Errorf("GCPressure 1: node %d collected at %d of %d barriers", id, len(got), rounds)
		}
	}
	if est.GCEpochs != procs*rounds || est.GCAcqEpochs != 0 {
		t.Errorf("GCPressure 1: %d episode epochs, %d consensus epochs over %d episodes; want %d, 0",
			est.GCEpochs, est.GCAcqEpochs, est.GCEpisodes, procs*rounds)
	}

	// The resolved threshold: the pressure, P-scaled past 8 nodes.
	for _, tt := range []struct {
		cfg  Config
		want int
	}{
		{Config{Procs: 16}, 512},
		{Config{Procs: 128}, 16 * DefaultGCPressure},
		{Config{Procs: 16, GCPressure: 24}, 24},
		{Config{Procs: 8, GCPressure: 1}, 1},
	} {
		if got := tt.cfg.GCThreshold(); got != tt.want {
			t.Errorf("%+v: threshold %d, want %d", tt.cfg, got, tt.want)
		}
	}
}
