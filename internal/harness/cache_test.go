package harness

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
)

// TestCellCacheSingleflightConcurrent pins the property the serve
// scheduler relies on: when several schedulers (or grid artifacts) in one
// process ask for the same cell concurrently, the singleflight cache runs
// the cell exactly once and every caller observes the one result. Before
// the serve subsystem the cache only ever saw concurrency from a single
// computeCells pool; now two Scheduler instances plus a grid run can race
// on the same key.
func TestCellCacheSingleflightConcurrent(t *testing.T) {
	var runs atomic.Int64
	fake := App{
		Name: "cache-singleflight-probe", // unique: never collides with real cells
		run: func(_ Scale, impl Impl, _ int, _ GCKnobs) (apps.Result, error) {
			if impl == Seq {
				return apps.Result{Checksum: 42}, nil
			}
			runs.Add(1)
			return apps.Result{Checksum: 42, Time: 7}, nil
		},
	}

	const callers = 32
	var wg sync.WaitGroup
	results := make([]apps.Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cachedVerified(fake, Test, OMPSMP, 4)
		}(i)
	}
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("cell executed %d times under %d concurrent callers, want exactly 1", n, callers)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d saw %+v, caller 0 saw %+v: cache returned divergent results", i, results[i], results[0])
		}
	}

	// A different key is a different cell: the cache must not conflate
	// proc counts.
	if _, err := cachedVerified(fake, Test, OMPSMP, 8); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("distinct (procs=8) key ran the cell %d times total, want 2", n)
	}
}
