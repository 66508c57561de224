package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dsm"
)

// TC is the thread context inside a parallel region: thread number, team
// size, synchronization directives, and access to shared memory. A TC's
// methods model the code the compiler emits for each directive; they all
// dispatch through the backend Worker, so region bodies written against
// TC are backend-neutral. The clock, Barrier, SemaWait, SemaSignal, Flush
// and the typed shared-memory accessors are the Worker's own, through the
// embedded threadOps (the same value as w).
type TC struct {
	threadOps

	p       *Program
	w       Worker
	threads int
	args    []byte // firstprivate environment received at fork

	inRegion bool      // a region thread's context, not the master's between regions
	partials []partial // this invocation's reduction partials (reduce.go)
}

// MC is the master context: the sequential program between parallel
// regions runs with it on thread 0, and it can open parallel regions.
type MC struct {
	TC
}

// ThreadNum returns the OpenMP thread number (0 = master).
func (tc *TC) ThreadNum() int { return tc.w.ID() }

// NumThreads returns the team size.
func (tc *TC) NumThreads() int { return tc.threads }

// Worker exposes the backend worker: the runtime-level API (raw lock ids,
// Poll, memory access) that shared layout helpers and compiler-emitted
// code use directly. In a region it is the thread's *dsm.Client on every
// backend; the NOW master's is node 0, which embeds its default client.
func (tc *TC) Worker() Worker { return tc.w }

// Args returns a reader over the firstprivate environment passed at fork.
func (tc *TC) Args() *ArgReader { return &ArgReader{b: tc.args} }

// Critical executes body inside the named critical section: one thread at
// a time program-wide per name, with entry acquiring and exit releasing
// consistency, per Section 2.
func (tc *TC) Critical(name string, body func()) {
	id := criticalLock(name)
	tc.w.Acquire(id)
	defer tc.w.Release(id)
	body()
}

// CondWait blocks on condition variable cond inside the named critical
// section (which the calling thread must have entered via CriticalEnter or
// be lexically inside through Critical).
func (tc *TC) CondWait(cond int, critical string) {
	tc.w.CondWait(cond, criticalLock(critical))
}

// CondSignal unblocks one waiter on cond (no effect if none), per the
// paper's proposed directive.
func (tc *TC) CondSignal(cond int, critical string) {
	tc.w.CondSignal(cond, criticalLock(critical))
}

// CondBroadcast unblocks every waiter on cond.
func (tc *TC) CondBroadcast(cond int, critical string) {
	tc.w.CondBroadcast(cond, criticalLock(critical))
}

// CriticalEnter/CriticalExit expose the named critical section as explicit
// brackets for code whose critical region does not nest lexically (the
// task-queue pattern of Figure 4).
func (tc *TC) CriticalEnter(name string) { tc.w.Acquire(criticalLock(name)) }

// CriticalExit leaves the named critical section.
func (tc *TC) CriticalExit(name string) { tc.w.Release(criticalLock(name)) }

// Threadprivate returns this thread's persistent private storage of the
// given name and size, allocating it zeroed on first use (the Fortran
// threadprivate common block of Section 2).
func (tc *TC) Threadprivate(name string, size int) []byte {
	store := tc.p.tpStores[tc.w.ID()]
	buf, ok := store[name]
	if !ok || len(buf) < size {
		buf = make([]byte, size)
		store[name] = buf
	}
	return buf[:size]
}

// StaticBlock partitions [lo, hi) into nearly equal contiguous blocks and
// returns the bounds of block `who` of `of`: the static schedule the
// compiler emits for parallel do. It is the single partition helper used
// by the omp, tmk, and mpi sources alike.
func StaticBlock(lo, hi, who, of int) (int, int) {
	n := hi - lo
	if n <= 0 {
		return lo, lo
	}
	base := n / of
	rem := n % of
	start := lo + who*base + min(who, rem)
	end := start + base
	if who < rem {
		end++
	}
	return start, end
}

// ---------------------------------------------------------------------
// Region registration and fork.
// ---------------------------------------------------------------------

// RegisterRegion registers the body of a `parallel` region under a name:
// the analogue of the compiler encapsulating each parallel region into a
// separate subroutine (Section 4.3.2). Must be called before Run.
func (p *Program) RegisterRegion(name string, body func(tc *TC)) {
	p.sys.RegisterTail(name, func(w *dsm.Client, arg []byte) []byte {
		tc := &TC{threadOps: w, p: p, w: w, threads: p.threads, args: arg, inRegion: true}
		body(tc)
		return tc.contribution()
	})
}

// RegisterDo registers the body of a `parallel do` region: the runtime
// hands each thread its static block [lo, hi) of the loop bounds supplied
// at the ParallelDo call site.
func (p *Program) RegisterDo(name string, body func(tc *TC, lo, hi int)) {
	p.sys.RegisterTail(name, func(w *dsm.Client, arg []byte) []byte {
		if len(arg) < 16 {
			panic(fmt.Sprintf("core: parallel do %q fork missing loop bounds", name))
		}
		gLo := int(int64(binary.LittleEndian.Uint64(arg)))
		gHi := int(int64(binary.LittleEndian.Uint64(arg[8:])))
		tc := &TC{threadOps: w, p: p, w: w, threads: p.threads, args: arg[16:], inRegion: true}
		lo, hi := StaticBlock(gLo, gHi, w.ID(), p.threads)
		body(tc, lo, hi)
		return tc.contribution()
	})
}

// Parallel opens the named parallel region on the whole team, passing the
// firstprivate environment (master's values at the fork, Section 2), and
// returns after all threads have joined and the master has folded their
// reduction contributions.
func (m *MC) Parallel(name string, args *Args) {
	m.combine(m.w.RunParallel(name, args.bytes()))
}

// ParallelDo opens the named parallel-do region over the iteration space
// [lo, hi), statically partitioned across the team.
func (m *MC) ParallelDo(name string, lo, hi int, args *Args) {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(int64(lo)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(hi)))
	m.combine(m.w.RunParallel(name, append(hdr[:], args.bytes()...)))
}
