package harness

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/apps"
)

// The experiment grid. Every table and figure of the evaluation is a set
// of independent (app, impl, procs) cells; computing them one after
// another makes regeneration cost the sum of all cells. The functions
// here run the cells of one artifact concurrently on a bounded worker
// pool — each cell is its own simulated machine, so cells do not share
// state — and hand the collected results back to the printer, which walks
// them in table order. Output is therefore byte-identical to a sequential
// harness run regardless of pool width.

// Workers bounds the grid worker pool. 1 reproduces the fully sequential
// harness; the default uses one worker per host CPU (each cell already
// runs `procs` goroutines of its own, so oversubscribing buys nothing).
var Workers = runtime.NumCPU()

// Cell weights. Cells are not equally expensive: a NOW cell simulates the
// full TreadMarks protocol (pages, diffs, servers, GC) while an SMP cell
// is one island with no protocol traffic and a hybrid cell sits in
// between (protocol traffic only across islands). The scheduler charges each cell
// a weight out of a capacity of CellUnitsPerWorker×Workers, so cheap
// cells pack several to a worker slot while NOW cells keep the old
// one-per-worker bound — shortening `nowbench -all` without
// oversubscribing the protocol-heavy simulations. The serve scheduler
// (internal/serve) prices its backend slots with the same weights, which
// is why they are exported.
const (
	// CellUnitsPerWorker is the capacity of one worker slot in weight
	// units: one full-protocol NOW cell, or CellUnitsPerWorker cheap ones.
	CellUnitsPerWorker = 4

	weightNOW    = 4 // omp, tmk: full TreadMarks protocol
	weightHybrid = 2 // omp-hybrid: inter-island protocol only
	weightCheap  = 1 // seq, omp-smp, mpi: no DSM protocol at all
)

// CellWeight returns the scheduling weight of one grid cell (or one
// served job) of the given implementation.
func CellWeight(impl Impl) int {
	if _, ok := hybridBackendKind(impl); ok {
		return weightHybrid
	}
	switch impl {
	case OMP, Tmk:
		return weightNOW
	case Seq, OMPSMP, MPI:
		return weightCheap
	}
	return weightNOW // unknown impls priced conservatively
}

// WeightedPool is a counting semaphore with per-acquire weights: the
// admission structure behind the grid's weighted worker pool, exported so
// the serve scheduler bounds its live backends with the same discipline.
type WeightedPool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	avail int
}

// NewWeightedPool returns a pool with the given capacity in weight units.
func NewWeightedPool(capacity int) *WeightedPool {
	p := &WeightedPool{avail: capacity}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Acquire blocks until w units are available and takes them. Fairness
// across mixed weights is the caller's concern: a heavy acquire can
// starve behind a stream of light ones if several goroutines race to
// acquire, so the grid and the serve scheduler both acquire from a
// single dispatch goroutine in a fixed admission order.
func (p *WeightedPool) Acquire(w int) {
	p.mu.Lock()
	for p.avail < w {
		p.cond.Wait()
	}
	p.avail -= w
	p.mu.Unlock()
}

// Release returns w units to the pool.
func (p *WeightedPool) Release(w int) {
	p.mu.Lock()
	p.avail += w
	p.mu.Unlock()
	p.cond.Broadcast()
}

// cellKey identifies one grid cell. Impl == Seq means the sequential
// reference run (Procs is ignored).
type cellKey struct {
	App   string
	Impl  Impl
	Procs int
}

// cellResult is the outcome of one grid cell.
type cellResult struct {
	Res apps.Result
	Err error
}

// runCell computes one grid cell. Tests swap it (via swapRunCell) to
// probe the pool's ordering behaviour with deterministic results; the
// default memoizes, and swapping bypasses the cache entirely. The guard
// exists because computeCells may run concurrently with itself (nowbench
// artifacts share the grid) and, since the serve scheduler arrived, with
// a serve.Scheduler in the same process: a bare package var would make
// the test-only swap a data race against those readers.
var (
	runCellMu sync.RWMutex
	runCell   = cachedVerified
)

func currentRunCell() func(App, Scale, Impl, int) (apps.Result, error) {
	runCellMu.RLock()
	defer runCellMu.RUnlock()
	return runCell
}

// swapRunCell installs a replacement cell runner and returns a restore
// function. Test-only; callers must restore before the test ends and must
// not leave cells in flight across the swap.
func swapRunCell(f func(App, Scale, Impl, int) (apps.Result, error)) (restore func()) {
	runCellMu.Lock()
	old := runCell
	runCell = f
	runCellMu.Unlock()
	return func() {
		runCellMu.Lock()
		runCell = old
		runCellMu.Unlock()
	}
}

// cellCache memoizes full grid cells across artifacts: nowbench -all
// asks for the same (app, impl, procs) cell from Figure 6, Table 2, the
// GC table, and the speedup sweep, and each cell is a complete
// multi-node simulation. Entries are singleflight (same pattern as
// seqCache) so concurrent artifacts share one computation, and caching
// also makes repeated artifacts in one run report one consistent
// simulation rather than four independent ones.
type cellCacheKey struct {
	App   string
	Scale Scale
	Impl  Impl
	Procs int
}

type cellCacheEntry struct {
	once sync.Once
	res  apps.Result
	err  error
}

var (
	cellCacheMu sync.Mutex
	cellCache   = map[cellCacheKey]*cellCacheEntry{}
)

func cachedVerified(a App, s Scale, impl Impl, procs int) (apps.Result, error) {
	key := cellCacheKey{App: a.Name, Scale: s, Impl: impl, Procs: procs}
	cellCacheMu.Lock()
	e, ok := cellCache[key]
	if !ok {
		e = &cellCacheEntry{}
		cellCache[key] = e
	}
	cellCacheMu.Unlock()
	e.once.Do(func() { e.res, e.err = Verified(a, s, impl, procs) })
	return e.res, e.err
}

// cellError pins a failure to the grid cell that produced it. Fail-fast
// inheritance hands the first error to every cell still queued, and a
// wide pool can surface it at an earlier table row than the cell that
// actually failed — the attribution must travel with the error, not be
// inferred from the row it prints at.
type cellError struct {
	key cellKey
	err error
}

func (e *cellError) Error() string {
	if e.key.Impl == Seq {
		return fmt.Sprintf("cell %s/seq failed: %v", e.key.App, e.err)
	}
	return fmt.Sprintf("cell %s/%s/p%d failed: %v", e.key.App, e.key.Impl, e.key.Procs, e.err)
}

func (e *cellError) Unwrap() error { return e.err }

// computeCells evaluates every cell on the weighted scheduler and returns
// the complete result set. Sequential oracles are deduplicated behind
// SeqCached's singleflight, so concurrent cells of one application fault
// in the oracle exactly once. Output never depends on scheduling: results
// are collected into a map and printed in table order by the caller.
//
// Fail fast: once any cell has failed, remaining cells are not computed —
// they inherit the first error instead of burning minutes on cells whose
// table will never print. With Workers == 1, cells run strictly
// sequentially in dispatch order, reproducing the sequential harness's
// abort-at-first-error behaviour exactly; a wider pool may surface the
// inherited error at an earlier table row, so it carries the failing
// cell's identity (cellError).
func computeCells(s Scale, cells []cellKey) map[cellKey]cellResult {
	return computeGrid(s, cells, true)
}

// computeCellsKeepGoing is computeCells without the fail-fast
// inheritance: every cell runs to its own verdict and failures stay
// confined to their (app, size) entry. The scaling study uses this — its
// 64- and 128-node cells each cost minutes, and one flaky cell must not
// void the rows already paid for or the applications still queued.
func computeCellsKeepGoing(s Scale, cells []cellKey) map[cellKey]cellResult {
	return computeGrid(s, cells, false)
}

func computeGrid(s Scale, cells []cellKey, failFast bool) map[cellKey]cellResult {
	var (
		mu       sync.Mutex
		firstErr error
		out      = make(map[cellKey]cellResult, len(cells))
	)
	oneCell := func(k cellKey) cellResult {
		var ferr error
		if failFast {
			mu.Lock()
			ferr = firstErr
			mu.Unlock()
		}
		var r cellResult
		if ferr != nil {
			r.Err = ferr
		} else {
			if a, ok := FindApp(k.App); ok {
				r.Res, r.Err = currentRunCell()(a, s, k.Impl, k.Procs)
			} else {
				r.Err = fmt.Errorf("harness: unknown app %q", k.App)
			}
			if r.Err != nil {
				r.Err = &cellError{key: k, err: r.Err}
			}
		}
		mu.Lock()
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		out[k] = r
		mu.Unlock()
		return r
	}

	if Workers <= 1 {
		for _, k := range cells {
			oneCell(k)
		}
		return out
	}

	// Weighted admission: every cell costs cellWeight(impl) units out of
	// cellUnitsPerWorker×Workers, so protocol-heavy NOW cells keep the
	// old one-per-worker concurrency while SMP/hybrid cells pack several
	// to a slot.
	pool := NewWeightedPool(CellUnitsPerWorker * Workers)
	var wg sync.WaitGroup
	for _, k := range cells {
		w := CellWeight(k.Impl)
		pool.Acquire(w)
		wg.Add(1)
		go func(k cellKey, w int) {
			defer wg.Done()
			defer pool.Release(w)
			oneCell(k)
		}(k, w)
	}
	wg.Wait()
	return out
}
