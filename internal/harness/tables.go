package harness

import (
	"fmt"
	"io"
)

// Every artifact below computes its full cell grid concurrently (see
// grid.go) and only then prints, walking the applications in Table 1
// order — on success the printed bytes do not depend on the worker pool
// width. On a cell failure the rows before the first failing result are
// printed and the error returned; with Workers == 1 this reproduces the
// sequential harness exactly, while wider pools may surface the error at
// an earlier row (fail-fast poisons cells still queued when another cell
// fails — see computeCells).

// Table1 prints the paper's Table 1: applications, input data sets,
// sequential execution time, and the parallel and synchronization
// directives used in the OpenMP versions.
func Table1(w io.Writer, s Scale) error {
	cells := make([]cellKey, 0, len(Apps))
	for _, a := range Apps {
		cells = append(cells, cellKey{App: a.Name, Impl: Seq})
	}
	got := computeCells(s, cells)

	fprintf(w, "Table 1: applications, input data sets, sequential execution time,\n")
	fprintf(w, "and parallel and synchronization directives in the OpenMP versions\n\n")
	fprintf(w, "%-10s %-32s %12s  %-20s %-28s\n", "App", "Data size", "Seq time", "Parallel", "Synchronization")
	for _, a := range Apps {
		c := got[cellKey{App: a.Name, Impl: Seq}]
		if c.Err != nil {
			return c.Err
		}
		size := a.DataSize
		if s != Full {
			size = "(test scale)"
		}
		fprintf(w, "%-10s %-32s %12s  %-20s %-28s\n", a.Name, size, c.Res.Time.String(), a.Parallel, a.Synch)
	}
	return nil
}

// Figure6 prints the paper's Figure 6 extended into a NOW vs SMP vs
// NOW-of-SMPs comparison: speedup on `procs` processors for every
// implementation of each application — the OpenMP source on all three of
// its backends, TreadMarks, and MPI (speedups relative to the sequential
// time of Table 1). The hybrid column uses HybridIslands SMP islands.
func Figure6(w io.Writer, s Scale, procs int) error {
	cells := make([]cellKey, 0, len(Apps)*(len(Impls)+1))
	for _, a := range Apps {
		cells = append(cells, cellKey{App: a.Name, Impl: Seq})
		for _, impl := range Impls {
			cells = append(cells, cellKey{App: a.Name, Impl: impl, Procs: procs})
		}
	}
	got := computeCells(s, cells)

	fprintf(w, "Figure 6: speedup comparison among the OpenMP (NOW, SMP and hybrid\n")
	fprintf(w, "NOW-of-SMPs backends), TreadMarks and MPI versions (%d processors,\n", procs)
	fprintf(w, "%d islands in the hybrid column)\n\n", HybridIslands)
	hdr := fmt.Sprintf("%-10s", "App")
	for _, impl := range Impls {
		hdr += fmt.Sprintf(" %8s", implLabel(impl))
	}
	fprintf(w, "%s\n", hdr)
	for _, a := range Apps {
		seq := got[cellKey{App: a.Name, Impl: Seq}]
		if seq.Err != nil {
			return seq.Err
		}
		row := fmt.Sprintf("%-10s", a.Name)
		for _, impl := range Impls {
			c := got[cellKey{App: a.Name, Impl: impl, Procs: procs}]
			if c.Err != nil {
				return c.Err
			}
			row += fmt.Sprintf(" %8.2f", seq.Res.Time.Seconds()/c.Res.Time.Seconds())
		}
		fprintf(w, "%s\n", row)
	}
	return nil
}

// Table2 prints the paper's Table 2: amount of data transmitted and
// number of messages in every implementation (the omp-smp columns are
// identically zero — hardware shared memory has no interconnect — and
// are printed as the baseline the NOW numbers are paying for; the
// omp-hybrid columns sit in between, counting only inter-island traffic).
func Table2(w io.Writer, s Scale, procs int) error {
	cells := make([]cellKey, 0, len(Apps)*len(Impls))
	for _, a := range Apps {
		for _, impl := range Impls {
			cells = append(cells, cellKey{App: a.Name, Impl: impl, Procs: procs})
		}
	}
	got := computeCells(s, cells)

	fprintf(w, "Table 2: amount of data transmitted and number of messages in the\n")
	fprintf(w, "OpenMP (NOW, SMP and hybrid backends), TreadMarks and MPI versions\n")
	fprintf(w, "(%d processors, %d islands in the hybrid columns)\n\n", procs, HybridIslands)
	group := func(title string) string {
		out := fmt.Sprintf(" | %10s", title)
		for i := 1; i < len(Impls); i++ {
			out += fmt.Sprintf(" %10s", "")
		}
		return out
	}
	fprintf(w, "%-10s%s%s\n", "", group("Data (MB)"), group("Messages"))
	hdr := fmt.Sprintf("%-10s", "App")
	for pass := 0; pass < 2; pass++ {
		hdr += " |"
		for _, impl := range Impls {
			hdr += fmt.Sprintf(" %10s", implLabel(impl))
		}
	}
	fprintf(w, "%s\n", hdr)
	for _, a := range Apps {
		mb := make([]float64, len(Impls))
		msgs := make([]int64, len(Impls))
		for i, impl := range Impls {
			c := got[cellKey{App: a.Name, Impl: impl, Procs: procs}]
			if c.Err != nil {
				return c.Err
			}
			mb[i] = float64(c.Res.Bytes) / 1e6
			msgs[i] = c.Res.Messages
		}
		row := fmt.Sprintf("%-10s |", a.Name)
		for _, v := range mb {
			row += fmt.Sprintf(" %10.2f", v)
		}
		row += " |"
		for _, v := range msgs {
			row += fmt.Sprintf(" %10d", v)
		}
		fprintf(w, "%s\n", row)
	}
	return nil
}

// TableGC prints the protocol-metadata accounting of the DSM-backed
// implementations (OpenMP and TreadMarks; MPI holds no consistency
// metadata): the resolved collection threshold, then per cell the interval
// records retired by the garbage collector, the peak retained
// interval-chain length on any node, the peak protocol-metadata bytes
// (records + diffs + twins) any one node held, the barrier/fork episodes
// whose floor the root announced out of those examined, and the floors the
// lock-manager consensus announced. Lock- and semaphore-synchronized
// applications (TSP, QSORT, Sweep3D) barrier rarely — the consensus
// trigger (AcqEp) is what bounds their chains.
func TableGC(w io.Writer, s Scale, procs int) error {
	impls := []Impl{OMP, Tmk}
	cells := make([]cellKey, 0, len(Apps)*len(impls))
	for _, a := range Apps {
		for _, impl := range impls {
			cells = append(cells, cellKey{App: a.Name, Impl: impl, Procs: procs})
		}
	}
	got := computeCells(s, cells)

	cfg := GCKnobs{}.config()
	cfg.Procs = procs
	fprintf(w, "Protocol-metadata GC: intervals retired, peak retained chain length,\n")
	fprintf(w, "peak metadata footprint per node, collecting epochs / episodes,\n")
	fprintf(w, "acquire epochs, and the MB the collector's validation waves moved —\n")
	fprintf(w, "pages and diffs no thread asked for (%d processors; either trigger\n", procs)
	fprintf(w, "collects when its floor newly retires >= %d interval records)\n\n", cfg.GCThreshold())
	fprintf(w, "%-10s | %10s %10s %10s %9s %6s %7s | %10s %10s %10s %9s %6s %7s\n",
		"", "OpenMP", "", "", "", "", "", "Tmk", "", "", "", "", "")
	fprintf(w, "%-10s | %10s %10s %10s %9s %6s %7s | %10s %10s %10s %9s %6s %7s\n",
		"App", "Retired", "PeakChain", "PeakKB", "Epochs", "AcqEp", "WaveMB",
		"Retired", "PeakChain", "PeakKB", "Epochs", "AcqEp", "WaveMB")
	for _, a := range Apps {
		row := fmt.Sprintf("%-10s", a.Name)
		for _, impl := range impls {
			c := got[cellKey{App: a.Name, Impl: impl, Procs: procs}]
			if c.Err != nil {
				return c.Err
			}
			r := c.Res
			row += fmt.Sprintf(" | %10d %10d %10d %9s %6d %7.2f", r.IntervalsRetired, r.PeakIntervalChain,
				r.PeakProtoBytes/1024, fmt.Sprintf("%d/%d", r.GCEpochs, r.GCEpisodes), r.GCAcqEpochs,
				float64(r.GCWaveBytes)/1e6)
		}
		fprintf(w, "%s\n", row)
	}
	return nil
}

// SpeedupSweep prints speedup curves over processor counts for every
// application and implementation (the supplementary scalability series).
func SpeedupSweep(w io.Writer, s Scale, procsList []int) error {
	cells := make([]cellKey, 0, len(Apps)*(1+len(Impls)*len(procsList)))
	for _, a := range Apps {
		cells = append(cells, cellKey{App: a.Name, Impl: Seq})
		for _, impl := range Impls {
			for _, p := range procsList {
				cells = append(cells, cellKey{App: a.Name, Impl: impl, Procs: p})
			}
		}
	}
	got := computeCells(s, cells)

	fprintf(w, "Speedup sweep: speedup vs processors per application and version\n\n")
	for _, a := range Apps {
		seq := got[cellKey{App: a.Name, Impl: Seq}]
		if seq.Err != nil {
			return seq.Err
		}
		fprintf(w, "%s (seq %s)\n", a.Name, seq.Res.Time)
		fprintf(w, "  %-10s", "procs")
		for _, p := range procsList {
			fprintf(w, " %7d", p)
		}
		fprintf(w, "\n")
		for _, impl := range Impls {
			fprintf(w, "  %-10s", impl)
			for _, p := range procsList {
				c := got[cellKey{App: a.Name, Impl: impl, Procs: p}]
				if c.Err != nil {
					return c.Err
				}
				fprintf(w, " %7.2f", seq.Res.Time.Seconds()/c.Res.Time.Seconds())
			}
			fprintf(w, "\n")
		}
	}
	return nil
}
