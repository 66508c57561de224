// Package repro's root benchmarks regenerate every table and figure of
// the paper through the testing.B interface, one benchmark family per
// artifact, the per-application ones as sub-benchmarks generated from
// harness.Apps × harness.Impls:
//
//	BenchmarkTable1/<App>         sequential times per application
//	BenchmarkFigure6/<App>/<impl> 8-processor speedups, OpenMP (NOW, SMP
//	                              and hybrid NOW-of-SMPs backends), Tmk,
//	                              MPI
//	BenchmarkTable2/<App>         data and message volumes (OpenMP/NOW)
//	BenchmarkMicro_*              Section 6 platform characteristics
//	BenchmarkAblation*            Section 3 flush vs semaphore/condvar
//
// The interesting output is the custom metrics (speedup, MB, msgs,
// virtual_ms) reported per benchmark; wall-clock ns/op only measures the
// simulator itself. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use the test-scale workloads so the whole suite stays fast;
// `go run ./cmd/nowbench -all` regenerates the artifacts at paper scale.
package main

import (
	"fmt"
	"testing"

	"repro/internal/harness"
)

const benchScale = harness.Test

func benchApp(b *testing.B, a harness.App, impl harness.Impl, procs int) {
	seq := a.RunSeq(benchScale)
	for i := 0; i < b.N; i++ {
		res, err := harness.Verified(a, benchScale, impl, procs)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 { // report the final run's metrics
			b.ReportMetric(seq.Time.Seconds()/res.Time.Seconds(), "speedup")
			b.ReportMetric(res.Time.Seconds()*1e3, "virtual_ms")
			b.ReportMetric(float64(res.Messages), "msgs")
			b.ReportMetric(float64(res.Bytes)/1e6, "MB")
		}
	}
}

// BenchmarkTable1 measures the sequential execution times.
func BenchmarkTable1(b *testing.B) {
	for _, a := range harness.Apps {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := a.RunSeq(benchScale)
				if i == b.N-1 {
					b.ReportMetric(res.Time.Seconds()*1e3, "virtual_ms")
				}
			}
		})
	}
}

// BenchmarkFigure6 measures the speedups at 8 processors, every version.
func BenchmarkFigure6(b *testing.B) {
	for _, a := range harness.Apps {
		for _, impl := range harness.Impls {
			b.Run(a.Name+"/"+string(impl), func(b *testing.B) { benchApp(b, a, impl, 8) })
		}
	}
}

// BenchmarkTable2 is the traffic columns of the OpenMP/NOW runs (a
// separate family so the table can be regenerated in isolation).
func BenchmarkTable2(b *testing.B) {
	for _, a := range harness.Apps {
		b.Run(a.Name, func(b *testing.B) { benchApp(b, a, harness.OMP, 8) })
	}
}

// --- Section 6 microbenchmarks ---------------------------------------

func BenchmarkMicro_Platform(b *testing.B) {
	var m harness.MicroResults
	var err error
	for i := 0; i < b.N; i++ {
		m, err = harness.Micro()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.UDPRoundTrip.Micros(), "udp_rtt_µs")
	b.ReportMetric(m.LockLow.Micros(), "lock_low_µs")
	b.ReportMetric(m.LockHigh.Micros(), "lock_high_µs")
	b.ReportMetric(m.Barrier8.Micros(), "barrier8_µs")
	b.ReportMetric(m.DiffLow.Micros(), "diff_low_µs")
	b.ReportMetric(m.DiffHigh.Micros(), "diff_high_µs")
	b.ReportMetric(m.TCPRoundTrip.Micros(), "tcp_rtt_µs")
	b.ReportMetric(m.TCPBandwidth, "tcp_MB/s")
}

// --- Section 3 ablations ----------------------------------------------

func BenchmarkAblationPipeline(b *testing.B) {
	var res harness.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.AblationPipeline(20, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FlushTime.Seconds()/res.NewTime.Seconds(), "sema_speedup")
	b.ReportMetric(float64(res.FlushMsgs), "flush_msgs")
	b.ReportMetric(float64(res.NewMsgs), "sema_msgs")
}

func BenchmarkAblationTaskQueue(b *testing.B) {
	var res harness.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.AblationTaskQueue(32, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FlushTime.Seconds()/res.NewTime.Seconds(), "condvar_speedup")
	b.ReportMetric(float64(res.FlushMsgs), "flush_msgs")
	b.ReportMetric(float64(res.NewMsgs), "condvar_msgs")
}

func BenchmarkAblationFlushCost(b *testing.B) {
	var rows []harness.FlushCostRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.AblationFlushCost([]int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.FlushMsgs), fmt.Sprintf("flush_msgs_p%d", r.Procs))
	}
}
