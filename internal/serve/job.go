// Package serve is the persistent multi-tenant job service over the
// shared backends: where the harness (internal/harness) regenerates the
// paper's tables as one-shot batch runs, serve models the NOW as a
// long-lived departmental machine that a stream of users submits jobs to
// — the usage mode the paper's Section 1 motivates networks of
// workstations with. A Driver draws a seeded arrival stream over a job
// mix, the Scheduler admits each job onto bounded backend capacity
// priced with the grid's cell weights (a full-protocol NOW job occupies
// a whole slot, a hybrid job half, an SMP/MPI/sequential job a quarter),
// runs it on a freshly constructed backend, and reports sustained
// throughput and queue-wait/service/end-to-end latency quantiles in
// VIRTUAL time — wholly deterministic for deterministic job classes, so
// the report is golden-testable.
package serve

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/sim"
)

// JobClass identifies one kind of job users submit: an application, the
// implementation to run it as, a processor count, and optional per-job
// DSM metadata-GC knobs. MixWeight biases the driver's class draw (a
// weight-3 class arrives three times as often as a weight-1 class).
type JobClass struct {
	App       string
	Impl      harness.Impl
	Procs     int
	MixWeight int
	GC        harness.GCKnobs
}

// Label names the class in reports: "app/impl/pN".
func (c JobClass) Label() string {
	return fmt.Sprintf("%s/%s/p%d", c.App, c.Impl, c.Procs)
}

// SlotWeight is the backend capacity the class occupies, in the grid's
// cell-weight units (harness.CellWeight): out of a slot's
// CellUnitsPerWorker units, a NOW job takes all of them, a hybrid job
// half, a cheap (seq/omp-smp/mpi) job a quarter.
func (c JobClass) SlotWeight() int { return harness.CellWeight(c.Impl) }

// Job is one admitted instance of a class.
type Job struct {
	ID      int
	Class   JobClass
	Arrival sim.Time // virtual submission time, from the driver

	// Filled in by the scheduler.
	Service sim.Time    // measured virtual execution time of the run
	Start   sim.Time    // virtual admission time (>= Arrival)
	End     sim.Time    // Start + Service
	Result  apps.Result // full run result (protocol footprint etc.)
	Err     error
}

// Wait is the virtual time the job queued before admission.
func (j *Job) Wait() sim.Time { return j.Start - j.Arrival }

// E2E is the virtual submission-to-completion latency.
func (j *Job) E2E() sim.Time { return j.End - j.Arrival }

// ParseMix parses a job-mix specification: comma-separated classes, each
// colon-separated as
//
//	App:impl:pN[:w=K][:gc=P]
//
// e.g. "Water:omp-smp:p4,TSP:omp:p4:w=2:gc=64". App is a registered
// application name (case-sensitive), impl one of the harness
// implementations (seq, omp, omp-smp, omp-hybrid[@K], tmk, mpi), pN the
// processor count, w=K the arrival mix weight (default 1), and gc=P the
// per-job GC pressure (dsm.Config.GCPressure; 0 = the default, negative is
// an error). Any other key is an error.
func ParseMix(spec string) ([]JobClass, error) {
	var mix []JobClass
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := parseClass(part)
		if err != nil {
			return nil, err
		}
		mix = append(mix, c)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("serve: empty job mix %q", spec)
	}
	return mix, nil
}

func parseClass(part string) (JobClass, error) {
	fields := strings.Split(part, ":")
	if len(fields) < 3 {
		return JobClass{}, fmt.Errorf("serve: class %q: want App:impl:pN[:w=K][:gc=P]", part)
	}
	c := JobClass{App: fields[0], Impl: harness.Impl(fields[1]), MixWeight: 1}
	if _, ok := harness.FindApp(c.App); !ok {
		return JobClass{}, fmt.Errorf("serve: class %q: unknown app %q", part, c.App)
	}
	if !validImpl(c.Impl) {
		return JobClass{}, fmt.Errorf("serve: class %q: unknown impl %q", part, fields[1])
	}
	n, err := atoiPrefixed(fields[2], "p")
	if err != nil || n <= 0 {
		return JobClass{}, fmt.Errorf("serve: class %q: bad processor count %q", part, fields[2])
	}
	c.Procs = n
	for _, opt := range fields[3:] {
		key, val, found := strings.Cut(opt, "=")
		if !found {
			return JobClass{}, fmt.Errorf("serve: class %q: bad option %q", part, opt)
		}
		switch key {
		case "w":
			w, err := strconv.Atoi(val)
			if err != nil || w <= 0 {
				return JobClass{}, fmt.Errorf("serve: class %q: bad mix weight %q", part, val)
			}
			c.MixWeight = w
		case "gc":
			p, err := strconv.Atoi(val)
			if err != nil || p < 0 {
				return JobClass{}, fmt.Errorf("serve: class %q: bad gc pressure %q", part, val)
			}
			c.GC.Pressure = p
		default:
			return JobClass{}, fmt.Errorf("serve: class %q: unknown option %q", part, key)
		}
	}
	return c, nil
}

func validImpl(i harness.Impl) bool {
	switch i {
	case harness.Seq, harness.OMP, harness.OMPSMP, harness.OMPHybrid, harness.Tmk, harness.MPI:
		return true
	}
	// Pinned hybrid island counts ("omp-hybrid@K") are valid too.
	return strings.HasPrefix(string(i), string(harness.OMPHybrid)+"@")
}

func atoiPrefixed(s, prefix string) (int, error) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, fmt.Errorf("missing %q prefix", prefix)
	}
	return strconv.Atoi(rest)
}
