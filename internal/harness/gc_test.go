package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps/water"
)

// TestGCLongIterationWater is the acceptance criterion for the
// barrier-epoch collector on a real workload: Water at 4x and 8x its
// usual step count on the full 8-node machine must retire intervals, and
// its peak retained chain length must NOT grow with the iteration count
// (the chains are bounded by the two live epochs, not the run length).
func TestGCLongIterationWater(t *testing.T) {
	run := func(steps int) water.Params {
		p := water.Small()
		p.Steps = steps
		p.DSM.GCPressure = 1 // every episode: test scale never reaches the default pressure
		return p
	}
	res4, err := water.RunTmk(run(8), 8) // 4x the Small() step count
	if err != nil {
		t.Fatal(err)
	}
	if res4.IntervalsRetired == 0 {
		t.Error("long-iteration Water retired no intervals")
	}
	if res4.PeakIntervalChain == 0 || res4.PeakProtoBytes == 0 {
		t.Errorf("metadata counters not populated: chain=%d bytes=%d",
			res4.PeakIntervalChain, res4.PeakProtoBytes)
	}
	res8, err := water.RunTmk(run(16), 8) // doubled again
	if err != nil {
		t.Fatal(err)
	}
	if res8.PeakIntervalChain > res4.PeakIntervalChain+2 {
		t.Errorf("peak chain grew with iterations under GC: 8 steps -> %d, 16 steps -> %d",
			res4.PeakIntervalChain, res8.PeakIntervalChain)
	}

	// Contrast: without the collector the chain grows with the run.
	poff := run(8)
	poff.DSM.DisableGC = true
	off, err := water.RunTmk(poff, 8)
	if err != nil {
		t.Fatal(err)
	}
	if off.IntervalsRetired != 0 {
		t.Errorf("GC off still retired %d intervals", off.IntervalsRetired)
	}
	if off.PeakIntervalChain <= res4.PeakIntervalChain {
		t.Errorf("GC off peak chain (%d) not above GC on (%d)", off.PeakIntervalChain, res4.PeakIntervalChain)
	}
	if off.PeakProtoBytes <= res4.PeakProtoBytes {
		t.Errorf("GC off peak footprint (%d) not above GC on (%d)", off.PeakProtoBytes, res4.PeakProtoBytes)
	}
}

// TestEquivalenceWithGCDisabled reruns the cross-implementation
// equivalence contract with the collector off: every DSM-backed
// implementation must reproduce the sequential checksum either way (the
// collector is invisible to the computation).
func TestEquivalenceWithGCDisabled(t *testing.T) {
	for _, a := range Apps {
		for _, impl := range []Impl{OMP, Tmk} { // MPI holds no DSM metadata
			for _, procs := range []int{2, 8} {
				if _, err := VerifiedGC(a, Test, impl, procs, GCKnobs{Disable: true}); err != nil {
					t.Errorf("GC off: %s/%s/p%d: %v", a.Name, impl, procs, err)
				}
			}
		}
	}
}

// TestEquivalenceCollectingEveryEpisode reruns the contract at GCPressure
// 1, which the default grid never exercises — test scale stays under the
// pressure threshold: with flushed, validated and refetched copies at every
// barrier and fork that retires anything, every DSM-backed implementation
// must still reproduce the sequential checksum (the OpenMP source also at
// 16 nodes, where the purge waves cross a two-level tree). The applications
// that mix locks with barriers arm both triggers at this pressure — the mix
// in which pairing two collectors once asked for a diff of a retired
// interval. These runs guard against that defect's return; they never
// reproduced it.
func TestEquivalenceCollectingEveryEpisode(t *testing.T) {
	for _, a := range Apps {
		for _, impl := range []Impl{OMP, Tmk, OMPHybrid} {
			grid := append([]int{}, EquivalenceProcs[1:]...)
			if impl == OMP {
				grid = append(grid, EquivalenceSmokeProcs[0])
			}
			for _, procs := range grid {
				t.Run(fmt.Sprintf("%s/%s/p%d", a.Name, impl, procs), func(t *testing.T) {
					t.Parallel()
					res, err := VerifiedGC(a, Test, impl, procs, GCKnobs{Pressure: 1})
					if err != nil {
						t.Fatal(err)
					}
					if res.GCEpochs+res.GCAcqEpochs == 0 || res.GCEpochs > res.GCEpisodes {
						t.Errorf("%d epochs over %d episodes, %d consensus epochs: nothing collected at pressure 1",
							res.GCEpochs, res.GCEpisodes, res.GCAcqEpochs)
					}
				})
			}
		}
	}
}

// TestPeakMetadataPriceFullScale pins what collecting under pressure costs
// where it costs most among the paging benchmark cells: full-scale
// 3D-FFT/omp on 8 processors never reaches the threshold (17 episodes, a
// few hundred records), so it holds every diff and twin of the run — 8.02
// MB on the fullest node, against 1.08 MB when every episode collected.
func TestPeakMetadataPriceFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale cell")
	}
	a, _ := FindApp("3D-FFT")
	res, err := a.Run(Full, OMP, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCEpochs != 0 {
		t.Errorf("%d of %d episodes collected: the cell no longer shows the uncollected peak", res.GCEpochs, res.GCEpisodes)
	}
	if res.PeakProtoBytes > 8_100_000 {
		t.Errorf("peak protocol metadata %d B on one node, pinned <= 8.1 MB", res.PeakProtoBytes)
	}
}

// TestAcquireWaveStaysAtHomes pins what the consensus trigger's purge ships
// at full scale: Sweep3D/omp on 8 processors, four acquire epochs in one
// barrier-free region. Every node incorporates every write notice of a
// semaphore pipeline, so when a copy whose home lagged the floor was
// validated, whichever node reached an epoch first fetched the diff chains
// of pages it never read: 4,100-4,900 validations and 37-41 MB a run, of
// which faults move ~13. Left alone until the home has published — then
// flushed — the wave is the homes' and the must-keep copies' alone: ~720
// validations, 12.9-13.4 MB.
func TestAcquireWaveStaysAtHomes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale cell")
	}
	a, _ := FindApp("Sweep3D")
	res, err := a.Run(Full, OMP, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.GCAcqEpochs == 0 || res.GCPagesFlushed == 0 {
		t.Fatalf("test premise: %d acquire epochs flushed %d pages", res.GCAcqEpochs, res.GCPagesFlushed)
	}
	if res.GCPagesValidated > 1000 {
		t.Errorf("%d pages validated, pinned <= 1,000: copies are being fetched for lagging homes again", res.GCPagesValidated)
	}
	if res.Bytes > 15_000_000 {
		t.Errorf("%d B moved, pinned <= 15 MB", res.Bytes)
	}
	if res.GCWaveBytes <= 0 || res.GCWaveBytes >= res.PageBytes || res.GCWaveMsgs >= res.PageMsgs {
		t.Errorf("wave traffic %d msgs / %d B is not a proper part of page service %d / %d",
			res.GCWaveMsgs, res.GCWaveBytes, res.PageMsgs, res.PageBytes)
	}
}

// TestTableGCRendering smoke-tests the new artifact: it must render a
// row per application with the three metadata columns.
func TestTableGCRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := TableGC(&buf, Test, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Retired", "PeakChain", "PeakKB"} {
		if !strings.Contains(out, want) {
			t.Errorf("TableGC missing column %q:\n%s", want, out)
		}
	}
	for _, a := range Apps {
		if !strings.Contains(out, a.Name) {
			t.Errorf("TableGC missing app %s", a.Name)
		}
	}
}

// gcRowsByMode indexes one workload's ablation rows by mode, checking that
// every mode ran and timed.
func gcRowsByMode(t *testing.T, rows []GCAblationRow) map[string]GCAblationRow {
	t.Helper()
	if len(rows) != len(GCModes) {
		t.Fatalf("ablation produced %d rows, want %d", len(rows), len(GCModes))
	}
	m := map[string]GCAblationRow{}
	for _, r := range rows {
		if r.Time == 0 {
			t.Errorf("%s/%s: missing time", r.Workload, r.Mode)
		}
		m[r.Mode] = r
	}
	return m
}

// TestAblationGCRows checks the ablation itself on the barrier kernel:
// collecting at every episode that retires anything must retire metadata
// and tighten the peak footprint against the collector off; the low
// threshold must trigger on only a fraction of the episodes it examines
// and still retire. The lock kernel's rows are TestAblationGCTriggerGrid's.
func TestAblationGCRows(t *testing.T) {
	iter, err := AblationGCIteration(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	it := gcRowsByMode(t, iter)
	every, low, off := it["every"], it["low"], it["off"]
	if every.IntervalsRetired == 0 || every.GCEpochs == 0 || every.GCEpochs > every.GCEpisodes {
		t.Errorf("every-episode GC: retired %d, %d epochs over %d episodes", every.IntervalsRetired, every.GCEpochs, every.GCEpisodes)
	}
	if every.PeakIntervalChain >= off.PeakIntervalChain || every.PeakProtoBytes >= off.PeakProtoBytes {
		t.Errorf("GC on peak chain %d / %d B not below GC off %d / %d B",
			every.PeakIntervalChain, every.PeakProtoBytes, off.PeakIntervalChain, off.PeakProtoBytes)
	}
	if low.GCEpochs == 0 || low.GCEpochs >= every.GCEpochs || low.IntervalsRetired == 0 || low.PeakProtoBytes >= off.PeakProtoBytes {
		t.Errorf("low threshold: %d epochs (every: %d), retired %d, peak %d B (off: %d B)",
			low.GCEpochs, every.GCEpochs, low.IntervalsRetired, low.PeakProtoBytes, off.PeakProtoBytes)
	}
	if off.IntervalsRetired != 0 || off.GCEpochs != 0 {
		t.Errorf("GC off still collected: retired=%d epochs=%d", off.IntervalsRetired, off.GCEpochs)
	}
}

// TestAblationGCTriggerGrid checks the ablation's lock-sparse rows and pins
// which trigger collects there: in the barrier-free lock kernel no episode
// can announce, at any threshold; the consensus is what retires and bounds
// the chain, flushing copies whose homes have published.
func TestAblationGCTriggerGrid(t *testing.T) {
	locks, err := AblationGCLockSparse(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ls := gcRowsByMode(t, locks)
	for _, r := range locks {
		if r.GCEpochs != 0 {
			t.Errorf("%s/%s: %d episode epochs inside a barrier-free region", r.Workload, r.Mode, r.GCEpochs)
		}
	}
	low, off := ls["low"], ls["off"]
	if low.GCAcqEpochs == 0 || low.IntervalsRetired == 0 || low.GCPagesFlushed == 0 {
		t.Errorf("consensus at the low threshold: %d epochs retired %d records and flushed %d copies, want all nonzero",
			low.GCAcqEpochs, low.IntervalsRetired, low.GCPagesFlushed)
	}
	if low.PeakIntervalChain >= off.PeakIntervalChain {
		t.Errorf("consensus did not bound the chain: %d vs off %d", low.PeakIntervalChain, off.PeakIntervalChain)
	}
	if _, err := GCLockSparse(2, 1, -1, "validate-hot"); err == nil {
		t.Error("GCLockSparse accepted a deleted purge policy")
	}
}

// TestAblationGCWaterAmortizes pins what collecting costs on the real
// workload: on Water, collecting at every episode costs less than a tenth
// over never collecting, since a flushed copy's refetch ships only its
// nonzero words (it cost a third more while a refetch shipped the whole
// page, and the low threshold recovered most of that); collecting only
// when the floor retires enough metadata still collects and bounds the
// chain below the GC-off run.
func TestAblationGCWaterAmortizes(t *testing.T) {
	rows, err := AblationGCWater(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]GCAblationRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	every, low, off := byMode["every"], byMode["low"], byMode["off"]
	if every.Time > off.Time+off.Time/10 {
		t.Errorf("collecting at every episode (%s) cost more than a tenth over GC off (%s)", every.Time, off.Time)
	}
	if low.GCEpochs == 0 || low.GCEpochs >= low.GCEpisodes {
		t.Errorf("low threshold: epochs %d not a proper fraction of episodes %d", low.GCEpochs, low.GCEpisodes)
	}
	if low.IntervalsRetired == 0 {
		t.Error("the low threshold retired nothing on Water")
	}
	if low.PeakIntervalChain >= off.PeakIntervalChain {
		t.Errorf("low threshold peak chain %d not below GC off %d", low.PeakIntervalChain, off.PeakIntervalChain)
	}
}
