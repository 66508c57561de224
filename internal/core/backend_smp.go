package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/dsm"
	"repro/internal/sim"
)

// smpBackend executes the same registered regions on hardware shared
// memory: one flat byte heap shared by a team of goroutines, with native
// Go synchronization primitives standing in for the bus-based hardware
// ones. This is the machine OpenMP was designed for and the paper's
// implicit baseline: no pages, no diffs, no interconnect — Report() is
// the zero value — while compute still charges the same sim.Platform
// virtual clocks, so NOW and SMP runs of one application are directly
// comparable in the speedup tables.
//
// The heap holds only what was allocated: Malloc reserves address space
// up to Config.HeapBytes, which bounds it rather than sizing an up-front
// allocation, and Run materializes the reserved extent as zeroed bytes in
// one allocation. A program allocates before Run — Malloc while the team
// runs panics, since growing the heap would move it under a worker's
// access — so the access path takes no lock.
//
// Virtual-time model: every sequentially-consistent hardware primitive
// costs a small constant (sim.Platform's SMP* terms, calibrated to a
// bus-based 200 MHz Pentium Pro SMP, the hardware contemporary of the
// paper's testbed), and blocking operations advance the blocked worker's
// clock to the virtual time of the event that released it — a lock
// acquisition resumes no earlier than the previous holder's release, a
// barrier departs at the latest arrival, a semaphore P consumes its
// matching V's timestamp.

// smpAbort unwinds a worker blocked in a primitive when another worker
// panicked and the backend is shutting down.
type smpAbort struct{ cause string }

func (e smpAbort) Error() string { return "smp: run aborted: " + e.cause }

type smpFork struct {
	fn  func(w Worker, arg []byte) []byte
	arg []byte
	at  sim.Time // virtual dispatch time at the master
}

// smpJoin is a slave's region completion: its finish time and contribution.
type smpJoin struct {
	t    sim.Time
	tail []byte
}

type smpLock struct {
	held    bool
	release sim.Time // virtual time of the last release
	c       *sync.Cond
}

type smpSema struct {
	signals []sim.Time // FIFO of banked V timestamps
	c       *sync.Cond
}

type smpCond struct {
	waiting int // registered waiters not yet woken
	tokens  int // issued wakeups not yet consumed
	wake    sim.Time
	c       *sync.Cond
}

type smpBackend struct {
	plat      *sim.Platform
	procs     int
	heapBytes int    // exhaustion bound (Config.HeapBytes)
	heap      []byte // [0, heapNext) once Run has begun

	heapMu   sync.Mutex
	heapNext Addr
	running  bool // inside Run: Malloc panics (under heapMu)

	regionsMu sync.Mutex
	regions   map[string]func(w Worker, arg []byte) []byte

	workers []*smpWorker

	// mu guards every synchronization structure below; blocking waits use
	// per-structure conds on it (the analogue of one coherent bus).
	mu      sync.Mutex
	locks   map[int]*smpLock
	semas   map[int]*smpSema
	conds   map[int]*smpCond
	barGen  int
	barN    int
	barTime sim.Time // max arrival clock of the open generation
	barOut  sim.Time // departure time of the last completed generation
	barC    *sync.Cond
	aborted bool

	errOnce  sync.Once
	err      error
	done     chan struct{}
	doneOnce sync.Once
}

// smpWorker is one goroutine of the team; it implements Worker.
type smpWorker struct {
	b      *smpBackend
	id     int
	clock  sim.Clock
	forkCh chan smpFork
	joinCh chan smpJoin
}

func newSMPBackend(cfg Config) *smpBackend {
	heapBytes := cfg.HeapBytes
	if heapBytes == 0 {
		heapBytes = 64 << 20
	}
	if heapBytes%PageSize != 0 {
		heapBytes += PageSize - heapBytes%PageSize
	}
	plat := cfg.Platform
	if plat == nil {
		plat = sim.DefaultPlatform()
	}
	b := &smpBackend{
		plat:      plat,
		procs:     cfg.Threads,
		heapBytes: heapBytes,
		regions:   make(map[string]func(Worker, []byte) []byte),
		locks:     make(map[int]*smpLock),
		semas:     make(map[int]*smpSema),
		conds:     make(map[int]*smpCond),
		done:      make(chan struct{}),
	}
	b.barC = sync.NewCond(&b.mu)
	for i := 0; i < cfg.Threads; i++ {
		b.workers = append(b.workers, &smpWorker{
			b:      b,
			id:     i,
			forkCh: make(chan smpFork, 1),
			joinCh: make(chan smpJoin, 1),
		})
	}
	return b
}

func (b *smpBackend) Procs() int { return b.procs }

func (b *smpBackend) Malloc(size int) Addr {
	b.heapMu.Lock()
	defer b.heapMu.Unlock()
	return b.mallocLocked(size)
}

func (b *smpBackend) MallocPage(size int) Addr {
	b.heapMu.Lock()
	defer b.heapMu.Unlock()
	if rem := int(b.heapNext) % PageSize; rem != 0 {
		b.heapNext += Addr(PageSize - rem)
	}
	return b.mallocLocked(size)
}

func (b *smpBackend) mallocLocked(size int) Addr {
	if size <= 0 {
		panic("smp: Malloc with non-positive size")
	}
	if b.running {
		panic("smp: Malloc while the team runs (allocate before Run)")
	}
	a := b.heapNext
	size = (size + 7) &^ 7
	b.heapNext += Addr(size)
	if int(b.heapNext) > b.heapBytes {
		panic(fmt.Sprintf("smp: shared heap exhausted (%d bytes requested beyond %d)", size, b.heapBytes))
	}
	return a
}

func (b *smpBackend) Register(name string, fn func(w Worker, arg []byte) []byte) {
	b.regionsMu.Lock()
	defer b.regionsMu.Unlock()
	if _, dup := b.regions[name]; dup {
		panic(fmt.Sprintf("smp: region %q registered twice", name))
	}
	b.regions[name] = fn
}

func (b *smpBackend) region(name string) func(Worker, []byte) []byte {
	b.regionsMu.Lock()
	defer b.regionsMu.Unlock()
	fn, ok := b.regions[name]
	if !ok {
		panic(fmt.Sprintf("smp: region %q not registered", name))
	}
	return fn
}

// abort records the first failure, wakes every blocked worker, and lets
// the abort panic unwind the rest of the team.
func (b *smpBackend) abort(err error) {
	b.errOnce.Do(func() {
		b.err = err
		b.mu.Lock()
		b.aborted = true
		for _, ls := range b.locks {
			ls.c.Broadcast()
		}
		for _, ss := range b.semas {
			ss.c.Broadcast()
		}
		for _, cq := range b.conds {
			cq.c.Broadcast()
		}
		b.barC.Broadcast()
		b.mu.Unlock()
		b.doneOnce.Do(func() { close(b.done) })
	})
}

func (b *smpBackend) recoverAbort(w *smpWorker) {
	if r := recover(); r != nil {
		if _, isAbort := r.(smpAbort); isAbort {
			return // secondary victim of another worker's failure
		}
		b.abort(fmt.Errorf("smp: worker %d: %v", w.id, r))
	}
}

// abortedLocked panics with the unwind error; callers check b.aborted
// first. Requires b.mu (released before panicking).
func (b *smpBackend) abortPanicLocked() {
	b.mu.Unlock()
	panic(smpAbort{cause: "backend shut down"})
}

func (b *smpBackend) Run(master func(w Worker)) error {
	b.heapMu.Lock()
	b.running = true
	b.heap = append(b.heap, make([]byte, int(b.heapNext)-len(b.heap))...)
	b.heapMu.Unlock()
	defer func() {
		b.heapMu.Lock()
		b.running = false
		b.heapMu.Unlock()
	}()
	var wg sync.WaitGroup
	for _, w := range b.workers[1:] {
		wg.Add(1)
		go func(w *smpWorker) {
			defer wg.Done()
			defer b.recoverAbort(w)
			w.slaveLoop()
		}(w)
	}
	wg.Add(1)
	go func() {
		w := b.workers[0]
		defer wg.Done()
		defer b.recoverAbort(w)
		master(w)
		for _, s := range b.workers[1:] {
			close(s.forkCh) // shut the slaves down
		}
	}()
	wg.Wait()
	return b.err
}

func (b *smpBackend) MaxClock() sim.Time {
	var m sim.Time
	for _, w := range b.workers {
		if t := w.clock.Now(); t > m {
			m = t
		}
	}
	return m
}

// Report is the zero value: hardware shared memory has no interconnect
// messages and keeps no LRC metadata in this cost model.
func (b *smpBackend) Report() dsm.Report { return dsm.Report{} }

// Close marks the backend shut down. The worker goroutines live only
// inside Run (which reaps them before returning), so there is nothing to
// wait for; closing done keeps the contract that a closed backend's done
// channel is closed whether or not the run aborted.
func (b *smpBackend) Close() error {
	b.doneOnce.Do(func() { close(b.done) })
	return b.err
}

// ---------------------------------------------------------------------
// Worker: identity, clock, fork/join.
// ---------------------------------------------------------------------

func (w *smpWorker) ID() int           { return w.id }
func (w *smpWorker) NumProcs() int     { return w.b.procs }
func (w *smpWorker) Now() sim.Time     { return w.clock.Now() }
func (w *smpWorker) Charge(d sim.Time) { w.clock.Advance(d) }
func (w *smpWorker) Poll()             { runtime.Gosched() }

func (w *smpWorker) Compute(flops float64) {
	w.clock.Advance(w.b.plat.ComputeCost(flops))
}

// RunParallel forks the named region on every slave, runs it on the
// master too, and joins: the master resumes at the latest finish time.
func (w *smpWorker) RunParallel(region string, arg []byte) [][]byte {
	if w.id != 0 {
		panic("smp: RunParallel must be called by the master (worker 0)")
	}
	b := w.b
	fn := b.region(region)
	w.clock.Advance(w.b.plat.SMPFork)
	at := w.clock.Now()
	for _, s := range b.workers[1:] {
		select {
		case s.forkCh <- smpFork{fn: fn, arg: arg, at: at}:
		case <-b.done:
			panic(smpAbort{cause: "backend shut down"})
		}
	}
	tails := make([][]byte, b.procs)
	tails[0] = fn(w, arg)
	for _, s := range b.workers[1:] {
		var j smpJoin
		select {
		case j = <-s.joinCh:
		case <-b.done:
			panic(smpAbort{cause: "backend shut down"})
		}
		w.clock.AdvanceTo(j.t)
		tails[s.id] = j.tail
	}
	return tails
}

// slaveLoop runs workers 1..P-1: wait for a fork, run the region, report
// the finish time, repeat until the master closes the fork channel.
func (w *smpWorker) slaveLoop() {
	for {
		var f smpFork
		var ok bool
		select {
		case f, ok = <-w.forkCh:
		case <-w.b.done:
			panic(smpAbort{cause: "backend shut down"})
		}
		if !ok {
			return
		}
		w.clock.AdvanceTo(f.at)
		tail := f.fn(w, f.arg)
		select {
		case w.joinCh <- smpJoin{t: w.clock.Now(), tail: tail}:
		case <-w.b.done:
			panic(smpAbort{cause: "backend shut down"})
		}
	}
}

// ---------------------------------------------------------------------
// Synchronization.
// ---------------------------------------------------------------------

// Barrier is a centralized generation barrier: departure time is the
// latest arrival plus the hardware barrier cost.
func (w *smpWorker) Barrier() {
	b := w.b
	if b.procs == 1 {
		return
	}
	b.mu.Lock()
	gen := b.barGen
	if t := w.clock.Now(); t > b.barTime {
		b.barTime = t
	}
	b.barN++
	if b.barN == b.procs {
		b.barOut = b.barTime + b.plat.SMPBarrier
		b.barGen++
		b.barN = 0
		b.barTime = 0
		b.barC.Broadcast()
		depart := b.barOut
		b.mu.Unlock()
		w.clock.AdvanceTo(depart)
		return
	}
	for b.barGen == gen && !b.aborted {
		b.barC.Wait()
	}
	if b.aborted {
		b.abortPanicLocked()
	}
	depart := b.barOut
	b.mu.Unlock()
	w.clock.AdvanceTo(depart)
}

func (b *smpBackend) lockFor(id int) *smpLock {
	ls, ok := b.locks[id]
	if !ok {
		ls = &smpLock{c: sync.NewCond(&b.mu)}
		b.locks[id] = ls
	}
	return ls
}

func (b *smpBackend) semaFor(id int) *smpSema {
	ss, ok := b.semas[id]
	if !ok {
		ss = &smpSema{c: sync.NewCond(&b.mu)}
		b.semas[id] = ss
	}
	return ss
}

func (b *smpBackend) condFor(id int) *smpCond {
	cq, ok := b.conds[id]
	if !ok {
		cq = &smpCond{c: sync.NewCond(&b.mu)}
		b.conds[id] = cq
	}
	return cq
}

// Acquire blocks until the lock is free; the acquirer resumes no earlier
// than the previous holder's release time.
func (w *smpWorker) Acquire(lock int) {
	b := w.b
	b.mu.Lock()
	ls := b.lockFor(lock)
	for ls.held && !b.aborted {
		ls.c.Wait()
	}
	if b.aborted {
		b.abortPanicLocked()
	}
	ls.held = true
	release := ls.release
	b.mu.Unlock()
	w.clock.AdvanceTo(release)
	w.clock.Advance(w.b.plat.SMPLock)
}

func (w *smpWorker) Release(lock int) {
	b := w.b
	b.mu.Lock()
	ls := b.lockFor(lock)
	if !ls.held {
		b.mu.Unlock()
		panic("smp: Release of a lock not held")
	}
	ls.held = false
	if t := w.clock.Now(); t > ls.release {
		ls.release = t
	}
	ls.c.Signal()
	b.mu.Unlock()
}

// SemaSignal performs V: bank the signal's timestamp and wake a waiter.
func (w *smpWorker) SemaSignal(sem int) {
	b := w.b
	w.clock.Advance(w.b.plat.SMPSema)
	b.mu.Lock()
	ss := b.semaFor(sem)
	ss.signals = append(ss.signals, w.clock.Now())
	ss.c.Signal()
	b.mu.Unlock()
}

// SemaWait performs P: block until a signal is banked, resuming no
// earlier than that signal's virtual time.
func (w *smpWorker) SemaWait(sem int) {
	b := w.b
	b.mu.Lock()
	ss := b.semaFor(sem)
	for len(ss.signals) == 0 && !b.aborted {
		ss.c.Wait()
	}
	if b.aborted {
		b.abortPanicLocked()
	}
	at := ss.signals[0]
	ss.signals = ss.signals[1:]
	b.mu.Unlock()
	w.clock.AdvanceTo(at)
	w.clock.Advance(w.b.plat.SMPSema)
}

// CondWait atomically releases the lock, blocks on the condition
// variable, and re-acquires the lock before returning.
func (w *smpWorker) CondWait(cond, lock int) {
	b := w.b
	b.mu.Lock()
	ls := b.lockFor(lock)
	if !ls.held {
		b.mu.Unlock()
		panic("smp: CondWait requires the associated lock to be held")
	}
	// Release and register atomically under b.mu: a signal can only be
	// issued by the next lock holder, who exists only after this release,
	// so the registration can never lose a wakeup.
	ls.held = false
	if t := w.clock.Now(); t > ls.release {
		ls.release = t
	}
	ls.c.Signal()
	cq := b.condFor(cond)
	cq.waiting++
	for cq.tokens == 0 && !b.aborted {
		cq.c.Wait()
	}
	if b.aborted {
		b.abortPanicLocked()
	}
	cq.tokens--
	wake := cq.wake
	// Re-acquire the lock before returning.
	for ls.held && !b.aborted {
		ls.c.Wait()
	}
	if b.aborted {
		b.abortPanicLocked()
	}
	ls.held = true
	release := ls.release
	b.mu.Unlock()
	w.clock.AdvanceTo(wake)
	w.clock.AdvanceTo(release)
	w.clock.Advance(w.b.plat.SMPCond + w.b.plat.SMPLock)
}

func (w *smpWorker) CondSignal(cond, lock int)    { w.condNotify(cond, false) }
func (w *smpWorker) CondBroadcast(cond, lock int) { w.condNotify(cond, true) }

func (w *smpWorker) condNotify(cond int, all bool) {
	b := w.b
	w.clock.Advance(w.b.plat.SMPCond)
	b.mu.Lock()
	cq := b.condFor(cond)
	if t := w.clock.Now(); t > cq.wake {
		cq.wake = t
	}
	if all {
		cq.tokens += cq.waiting
		cq.waiting = 0
		cq.c.Broadcast()
	} else if cq.waiting > 0 {
		cq.waiting--
		cq.tokens++
		cq.c.Signal()
	}
	b.mu.Unlock()
}

// Flush is a no-op on coherent hardware shared memory: every write is
// already visible. It exists so flush-using sources stay portable; the
// 2(n-1) message cost the paper measures is a NOW artifact.
func (w *smpWorker) Flush() {}

// ---------------------------------------------------------------------
// Shared-memory access: direct loads and stores on the flat heap. The
// application's own synchronization (all of it funnelled through b.mu)
// provides the ordering, exactly as on real hardware. The heap cannot
// grow during Run, so its extent is read without a lock.
// ---------------------------------------------------------------------

func (w *smpWorker) checkRange(a Addr, size int) {
	if a < 0 || int(a)+size > len(w.b.heap) {
		panic(fmt.Sprintf("smp: access [%d,%d) outside shared heap of %d bytes", a, int(a)+size, len(w.b.heap)))
	}
}

func (w *smpWorker) ReadF64(a Addr) float64 {
	w.checkRange(a, 8)
	return math.Float64frombits(binary.LittleEndian.Uint64(w.b.heap[a:]))
}

func (w *smpWorker) WriteF64(a Addr, v float64) {
	w.checkRange(a, 8)
	binary.LittleEndian.PutUint64(w.b.heap[a:], math.Float64bits(v))
}

func (w *smpWorker) ReadI64(a Addr) int64 {
	w.checkRange(a, 8)
	return int64(binary.LittleEndian.Uint64(w.b.heap[a:]))
}

func (w *smpWorker) WriteI64(a Addr, v int64) {
	w.checkRange(a, 8)
	binary.LittleEndian.PutUint64(w.b.heap[a:], uint64(v))
}

func (w *smpWorker) ReadI32(a Addr) int32 {
	w.checkRange(a, 4)
	return int32(binary.LittleEndian.Uint32(w.b.heap[a:]))
}

func (w *smpWorker) WriteI32(a Addr, v int32) {
	w.checkRange(a, 4)
	binary.LittleEndian.PutUint32(w.b.heap[a:], uint32(v))
}

func (w *smpWorker) ReadBytes(a Addr, dst []byte) {
	w.checkRange(a, len(dst))
	copy(dst, w.b.heap[a:int(a)+len(dst)])
}

func (w *smpWorker) WriteBytes(a Addr, src []byte) {
	w.checkRange(a, len(src))
	copy(w.b.heap[a:], src)
}

func (w *smpWorker) ReadF64s(a Addr, dst []float64) {
	w.checkRange(a, 8*len(dst))
	h := w.b.heap[a:]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(h[8*i:]))
	}
}

func (w *smpWorker) WriteF64s(a Addr, src []float64) {
	w.checkRange(a, 8*len(src))
	h := w.b.heap[a:]
	for i, v := range src {
		binary.LittleEndian.PutUint64(h[8*i:], math.Float64bits(v))
	}
}

func (w *smpWorker) ReadI32s(a Addr, dst []int32) {
	w.checkRange(a, 4*len(dst))
	h := w.b.heap[a:]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(h[4*i:]))
	}
}

func (w *smpWorker) WriteI32s(a Addr, src []int32) {
	w.checkRange(a, 4*len(src))
	h := w.b.heap[a:]
	for i, v := range src {
		binary.LittleEndian.PutUint32(h[4*i:], uint32(v))
	}
}

var _ Worker = (*smpWorker)(nil)
var _ Backend = (*smpBackend)(nil)
var _ Backend = (*dsmBackend)(nil)
