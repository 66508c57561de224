package water

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dsm"
)

// Regression test for the sharded-homes GC data-loss bug (the full-scale
// Water checksum drift): a page copy holding content with no notice left
// to re-deliver it — the node's own closed writes, or foreign diffs
// already applied and removed from `missing` — was flushed whenever the
// RETIRE floor covered it, but the rebuild-from-home path only guarantees
// the home reflects the LAGGED flush floor (the previous collecting
// episode). Content baked in between the two floors was silently lost:
// zeros where nothing else covered the words, ulp-stale floats where the
// refetch raced the home's own validation. The discard guard now keys on
// page.appliedVC against the flush floor.
//
// Smallest reproducing scale: NMol=256, Steps=2, 4 procs (block-cyclic
// homes, where the flush floor lags the retire floor). The failure is a
// genuine scheduling race — before the fix it fired on virtually every run, so a
// handful of repetitions is a reliable detector. The DSM shadow-memory
// oracle gives a protocol-level verdict independent of FP summation
// order; the checksum check additionally pins the end-to-end result.
func TestWaterShardedGCDrift(t *testing.T) {
	p := Params{NMol: 256, Steps: 2, Seed: 31415}
	want := RunSeq(p)
	for rep := 0; rep < 5; rep++ {
		dsm.SetDebugOracle(true)
		res, err := RunOMPCfg(p, 4, core.Config{Threads: 4, Backend: core.BackendNOW})
		div := dsm.OracleDiverges()
		dsm.SetDebugOracle(false)
		if err != nil {
			t.Fatal(err)
		}
		if div > 0 {
			t.Fatalf("rep %d: %d divergent shared-memory reads (DSM delivered wrong bytes)", rep, div)
		}
		if rel := (res.Checksum - want.Checksum) / want.Checksum; math.Abs(rel) > 1e-10 {
			t.Fatalf("rep %d: checksum drift rel=%g (got %.17g want %.17g)",
				rep, rel, res.Checksum, want.Checksum)
		}
	}
}
