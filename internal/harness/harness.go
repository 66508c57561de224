// Package harness drives every experiment of the paper's evaluation
// (Section 6) and prints the corresponding table or figure: Table 1
// (applications and sequential times), Figure 6 (8-processor speedups of
// OpenMP vs TreadMarks vs MPI), Table 2 (data and message counts), the
// Section 6 platform microbenchmarks, and the Section 3 ablations
// (flush-based vs semaphore/condition-variable synchronization).
package harness

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/apps/barnes"
	"repro/internal/apps/fft3d"
	"repro/internal/apps/lu"
	"repro/internal/apps/qsort"
	"repro/internal/apps/sweep3d"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/core"
	"repro/internal/dsm"
)

// Impl selects one of the implementations under comparison (plus
// sequential): the paper's three, the same OpenMP source executed on the
// hardware-shared-memory (SMP) backend — the baseline the paper retargets
// OpenMP away from — and on the hybrid NOW-of-SMPs backend, the cluster
// configuration that succeeded the paper's testbed.
type Impl string

// Implementations.
const (
	Seq       Impl = "seq"
	OMP       Impl = "omp"        // OpenMP on the NOW (TreadMarks) backend
	OMPSMP    Impl = "omp-smp"    // the SAME OpenMP source on hardware shared memory
	OMPHybrid Impl = "omp-hybrid" // the SAME source on a NOW of SMP islands
	Tmk       Impl = "tmk"
	MPI       Impl = "mpi"
)

// Impls is the comparison order used in the figures: the paper's three
// implementations plus the NOW / SMP / NOW-of-SMPs column triple for the
// one OpenMP source.
var Impls = []Impl{OMP, OMPSMP, OMPHybrid, Tmk, MPI}

// HybridIslands is the SMP island count used when an omp-hybrid cell does
// not pin one explicitly (the tables and Figure 6); nowbench -islands
// overrides it. The count is clamped to the cell's processor count by the
// core runtime.
var HybridIslands = 2

// HybridImpl returns the omp-hybrid implementation pinned to an explicit
// island count, e.g. HybridImpl(2) == "omp-hybrid@2" (the equivalence
// suite sweeps these).
func HybridImpl(islands int) Impl {
	return Impl(fmt.Sprintf("%s@%d", OMPHybrid, islands))
}

// hybridBackendKind maps an omp-hybrid Impl (with or without a pinned
// island count) to its core backend kind.
func hybridBackendKind(impl Impl) (core.BackendKind, bool) {
	s := string(impl)
	if s == string(OMPHybrid) {
		return core.HybridIslands(HybridIslands), true
	}
	if rest, ok := strings.CutPrefix(s, string(OMPHybrid)+"@"); ok {
		if k, err := strconv.Atoi(rest); err == nil && k > 0 {
			return core.HybridIslands(k), true
		}
	}
	return "", false
}

// implLabel returns an Impl's column heading in the printed artifacts.
func implLabel(i Impl) string {
	switch i {
	case OMP:
		return "OpenMP"
	case OMPSMP:
		return "OMP/SMP"
	case OMPHybrid:
		return "OMP/Hyb"
	case Tmk:
		return "Tmk"
	case MPI:
		return "MPI"
	}
	return string(i)
}

// Scale selects the workload size.
type Scale string

// Scales. Full is the paper-scale workload (README "Applications"); Test
// is a fast configuration for CI and unit tests.
const (
	Full Scale = "full"
	Test Scale = "test"
)

// GCKnobs are per-run DSM metadata-GC settings: collector off, and the
// collection threshold both triggers read (see dsm.Config). A served job
// (serve.Job) may carry them; zero fields defer to DefaultGC, so the zero
// value runs the plain grid cell.
type GCKnobs struct {
	Disable  bool
	Pressure int
}

// DefaultGC supplies the collection threshold of every cell whose own
// knobs leave it zero; nowbench -gcpressure sets it for a whole run. Only
// Pressure is consulted.
var DefaultGC GCKnobs

// config renders the knobs as the dsm.Config an application's Params
// carry (the run itself fills Procs, HeapBytes and Platform).
func (g GCKnobs) config() dsm.Config {
	if g.Pressure == 0 {
		g.Pressure = DefaultGC.Pressure
	}
	return dsm.Config{DisableGC: g.Disable, GCPressure: g.Pressure}
}

// App is one of the seven registered applications, wired to its
// implementations.
type App struct {
	Name string
	// DataSize describes the Full workload for Table 1.
	DataSize string
	// Directives lists the parallel + synchronization directives the
	// OpenMP version uses (the last two columns of Table 1).
	Parallel string
	Synch    string

	run func(s Scale, impl Impl, procs int, gc GCKnobs) (apps.Result, error)
}

// RunSeq executes the sequential reference implementation.
func (a App) RunSeq(s Scale) apps.Result {
	res, _ := a.run(s, Seq, 1, GCKnobs{}) // the sequential arm returns no error
	return res
}

// Run executes one implementation under the default GC knobs, unverified.
func (a App) Run(s Scale, impl Impl, procs int) (apps.Result, error) {
	return a.run(s, impl, procs, GCKnobs{})
}

// entry is the set of entry points every application package exports over
// its own Params type; its run method is the one impl dispatch shared by
// all seven applications.
type entry[P any] struct {
	full, test func() P
	dsm        func(*P) *dsm.Config // the Params' DSM knob field
	seq        func(P) apps.Result
	omp        func(P, int, core.BackendKind) (apps.Result, error)
	tmk, mpi   func(P, int) (apps.Result, error)
}

func (e entry[P]) run(s Scale, impl Impl, procs int, gc GCKnobs) (apps.Result, error) {
	p := e.test()
	if s == Full {
		p = e.full()
	}
	*e.dsm(&p) = gc.config()
	if bk, ok := hybridBackendKind(impl); ok {
		return e.omp(p, procs, bk)
	}
	switch impl {
	case OMP:
		return e.omp(p, procs, core.BackendNOW)
	case OMPSMP:
		return e.omp(p, procs, core.BackendSMP)
	case Tmk:
		return e.tmk(p, procs)
	case MPI:
		return e.mpi(p, procs)
	}
	return e.seq(p), nil
}

// Apps lists the applications in the paper's Table 1 order.
var Apps = []App{
	{
		Name:     "Sweep3D",
		DataSize: "50x50x50, 6 angles",
		Parallel: "parallel region",
		Synch:    "semaphore",
		run: entry[sweep3d.Params]{sweep3d.Default, sweep3d.Small,
			func(p *sweep3d.Params) *dsm.Config { return &p.DSM },
			sweep3d.RunSeq, sweep3d.RunOMPOn, sweep3d.RunTmk, sweep3d.RunMPI}.run,
	},
	{
		Name:     "3D-FFT",
		DataSize: "64x64x64, 2 iters",
		Parallel: "parallel do",
		Synch:    "none",
		run: entry[fft3d.Params]{fft3d.Default, fft3d.Small,
			func(p *fft3d.Params) *dsm.Config { return &p.DSM },
			fft3d.RunSeq, fft3d.RunOMPOn, fft3d.RunTmk, fft3d.RunMPI}.run,
	},
	{
		Name:     "Water",
		DataSize: "512 molecules, 16 steps",
		Parallel: "parallel do/region",
		Synch:    "barrier",
		run: entry[water.Params]{water.Default, water.Small,
			func(p *water.Params) *dsm.Config { return &p.DSM },
			water.RunSeq, water.RunOMPOn, water.RunTmk, water.RunMPI}.run,
	},
	{
		Name:     "TSP",
		DataSize: "14 cities",
		Parallel: "parallel region",
		Synch:    "critical",
		run: entry[tsp.Params]{tsp.Default, tsp.Small,
			func(p *tsp.Params) *dsm.Config { return &p.DSM },
			tsp.RunSeq, tsp.RunOMPOn, tsp.RunTmk, tsp.RunMPI}.run,
	},
	{
		Name:     "QSORT",
		DataSize: "256K ints, bubble threshold 1024",
		Parallel: "parallel region",
		Synch:    "critical, condition variables",
		run: entry[qsort.Params]{qsort.Default, qsort.Small,
			func(p *qsort.Params) *dsm.Config { return &p.DSM },
			qsort.RunSeq, qsort.RunOMPOn, qsort.RunTmk, qsort.RunMPI}.run,
	},
	{
		Name:     "LU",
		DataSize: "512x512, contiguous blocks",
		Parallel: "parallel region",
		Synch:    "barrier, critical",
		run: entry[lu.Params]{lu.Default, lu.Small,
			func(p *lu.Params) *dsm.Config { return &p.DSM },
			lu.RunSeq, lu.RunOMPOn, lu.RunTmk, lu.RunMPI}.run,
	},
	{
		Name:     "Barnes",
		DataSize: "4096 bodies, 16 steps",
		Parallel: "parallel region",
		Synch:    "barrier",
		run: entry[barnes.Params]{barnes.Default, barnes.Small,
			func(p *barnes.Params) *dsm.Config { return &p.DSM },
			barnes.RunSeq, barnes.RunOMPOn, barnes.RunTmk, barnes.RunMPI}.run,
	},
}

// seqCache memoizes sequential runs: they are deterministic, and every
// Verified call needs the sequential checksum as its oracle. Entries are
// singleflight so concurrent grid cells of one application share a single
// oracle run instead of racing to compute duplicates.
type seqEntry struct {
	once sync.Once
	res  apps.Result
}

var (
	seqCacheMu sync.Mutex
	seqCache   = map[string]*seqEntry{}
)

// SeqCached returns the (memoized) sequential result of an application.
// It is safe for concurrent use.
func SeqCached(a App, s Scale) apps.Result {
	key := a.Name + "/" + string(s)
	seqCacheMu.Lock()
	e, ok := seqCache[key]
	if !ok {
		e = &seqEntry{}
		seqCache[key] = e
	}
	seqCacheMu.Unlock()
	e.once.Do(func() { e.res = a.RunSeq(s) })
	return e.res
}

// FindApp returns the application with the given (case-sensitive) name.
func FindApp(name string) (App, bool) {
	for _, a := range Apps {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// AppNames lists the application names in table order.
func AppNames() []string {
	out := make([]string, len(Apps))
	for i, a := range Apps {
		out[i] = a.Name
	}
	sort.Strings(out)
	return out
}

// Verified runs one implementation under the default GC knobs and checks
// its checksum against the sequential run, returning an error on
// divergence — every reported number comes from a validated computation.
func Verified(a App, s Scale, impl Impl, procs int) (apps.Result, error) {
	return VerifiedGC(a, s, impl, procs, GCKnobs{})
}

// VerifiedGC is Verified with per-run GC knobs (served jobs carry them).
// Unlike the cached grid cells, the run is always fresh.
func VerifiedGC(a App, s Scale, impl Impl, procs int, gc GCKnobs) (apps.Result, error) {
	want := SeqCached(a, s)
	if impl == Seq {
		return want, nil
	}
	got, err := a.run(s, impl, procs, gc)
	if err != nil {
		return apps.Result{}, err
	}
	if err := apps.CheckClose(a.Name+"/"+string(impl), got.Checksum, want.Checksum, 1e-8); err != nil {
		return apps.Result{}, err
	}
	return got, nil
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
